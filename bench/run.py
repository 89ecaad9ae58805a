"""Benchmark for obliq: one command, every metric by name and unit.

    python3 bench/run.py --workload shots --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) in this process for ``--seconds``
seconds of timed passes and prints, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer ones, measured from spans recorded around
obliq's public functions. The line before it holds the run's details: the
environment, sha256 digests of every job's artifacts, sample counts and
per-layer shares. See ``bench/README.md``.
"""

from __future__ import annotations

import os

# Held fixed so that two commits are measured alike; must be set before numpy
# is imported. One thread also keeps timings steady on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import ModuleType  # noqa: E402

T_PROCESS = perf_counter()

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
HELD_OUT_SEED = 1729
# The tail is the highest percentile with at least TAIL_BEYOND passes above
# it, so a run needs at least TAIL_BEYOND + 1 timed passes.
TAIL_BEYOND = 10
MIN_PASSES = TAIL_BEYOND + 1
MIN_TRACE_PASSES = 3
# Set-up is repeated in this many fresh processes besides the run's own, and
# setup_s is the median of all of them.
SETUP_PROBES = 2
# On a shared host the machine's speed drifts by a fifth or more over minutes,
# while the ratio of a job to a fixed calibration kernel timed around it stays
# within a few percent. Every reported time is therefore scaled, job by job,
# by the kernel's reference time over its time now: it reads as seconds on a
# machine where the kernel takes its reference time. The unscaled times are
# kept in the detail line.
#
# A workload tracks best the kernel shaped like its own work. Over six
# minutes of drift on a 2-core x86-64 host, where unscaled passes spread by
# 16%, the spread of scaled passes was 5% (shots) and 8% (deep-links) with
# the mixed kernel, whose time is half Python and half one mid-size matrix
# product, and 9% (wide-qudits). With the dense kernel, one 384x384 complex
# matrix product like the dense kernels at D from 216 to 625, wide-qudits
# spread by 5%, but shots by 13% and deep-links by 15%.
CALIBRATION = {"shots": "mixed", "deep-links": "mixed", "wide-qudits": "dense"}
# Reference times: the mixed kernel's quiet time on the reference machine
# (2-core x86-64 at 2.1 GHz, Python 3.11, numpy 2.4, one BLAS thread), and
# the dense kernel's at the median ratio, 1.3, of the two measured together.
CAL_REF_S = {"mixed": 0.0040, "dense": 0.0052}


def _import_obliq() -> ModuleType:
    """Import obliq and the modules the benchmark calls or traces from the
    checkout's ``src``, never from site-packages."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import obliq

    if Path(obliq.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"obliq was imported from {obliq.__file__}, not from {src}")
    from obliq import channels, cli, distributed, oblivious, states, superchannel  # noqa: F401

    return obliq


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Calibration:
    """A fixed kernel independent of obliq, timed to track how fast the
    machine runs right now for one kind of work.

    ``mixed`` is shaped like the simulator's small-register work: small
    Kronecker products, matrix products and partial traces, JSON records,
    and one 256x256 complex product. ``dense`` is one 384x384 complex
    product.
    """

    def __init__(self, kernel: str):
        rng = np.random.default_rng(0)
        self.ref_s = CAL_REF_S[kernel]
        self._kernel = {"mixed": self._mixed, "dense": self._dense}[kernel]
        self._gate = rng.standard_normal((4, 4)) + 1j
        self._state = rng.standard_normal((16, 16)) + 1j
        self._large = rng.standard_normal((256, 256)) + 1j
        self._dense_op = rng.standard_normal((384, 384)) + 1j

    def _mixed(self) -> None:
        eye = np.eye(4)
        for i in range(50):
            op = np.kron(self._gate, eye)
            out = op @ self._state @ op.conj().T
            np.trace(out.reshape(4, 4, 4, 4), axis1=1, axis2=3)
            record = {"shot": i, "bits": [i & 1, i >> 1 & 1], "value": float(np.trace(out).real)}
            json.dumps(record, sort_keys=True)
        self._large @ self._large

    def _dense(self) -> None:
        self._dense_op @ self._dense_op

    def _timed(self) -> float:
        start = perf_counter()
        self._kernel()
        return perf_counter() - start

    def seconds(self) -> float:
        """The median of three timings of the kernel, so that one interrupt
        does not skew it."""
        return statistics.median(self._timed() for _ in range(3))

    def scale(self) -> float:
        """The reference time over the median of three calibrations."""
        return self.ref_s / statistics.median(self.seconds() for _ in range(3))


# --- layers ---


def _bucket(engine) -> str:
    dim = engine.layout.total_dim
    for cap in (16, 64, 256):
        if dim <= cap:
            return f"d{cap}"
    return "d1024"


ENGINE_OPS = {
    "alloc": ("alloc", "alloc_program", "distribute_ebit"),
    "apply_local": ("apply_local",),
    "measure": ("measure_binary", "measure_projective"),
    "probability": ("probability",),
    "discard": ("discard",),
}


def layer_probes(obliq: ModuleType) -> list[tracing.Probe]:
    """Probes on the binding each caller imported, named by defining module."""
    Probe = tracing.Probe
    cli, distributed, oblivious = obliq.cli, obliq.distributed, obliq.oblivious
    probes = [
        Probe(cli, "main", "cli.run"),
        Probe(cli, "validate_scenario", "cli.validate_scenario"),
        Probe(cli, "state_from_literal", "cli.state_from_literal"),
        Probe(cli, "gate_from_literal", "gates.gate_from_literal"),
        Probe(cli, "choi_of", "channels.choi_of"),
        Probe(obliq.channels, "choi_of", "channels.choi_of"),
        Probe(cli, "oqt_compose_choi", "superchannel.oqt_compose_choi"),
        Probe(oblivious, "oqt_step", "oblivious.oqt_step"),
        Probe(oblivious, "oqt_sample_records", "oblivious.oqt_sample_records"),
        Probe(oblivious, "oqt_estimate_observable", "oblivious.oqt_estimate_observable"),
    ]
    for fn in ("run_dbqc", "run_triparty", "pingpong_run", "knit_estimate"):
        probes.append(Probe(cli, fn, f"distributed.{fn}"))
    for module in (distributed, oblivious, obliq.superchannel):
        probes.append(
            Probe(
                module,
                "embed_operator",
                "qmath.embed_operator",
                tally=lambda op, targets, layout: 16 * layout.total_dim**2,
            )
        )
    for module in (distributed, oblivious, obliq.channels, obliq.states):
        probes.append(Probe(module, "partial_trace", "qmath.partial_trace"))
    engine = distributed.ProtocolEngine
    probes.append(Probe(engine, "__init__", "distributed.engine.passes", span=False))
    for op, methods in ENGINE_OPS.items():
        namer = lambda eng, *a, _op=op, **k: f"distributed.engine.{_op}.{_bucket(eng)}"  # noqa: E731
        probes += [Probe(engine, method, namer) for method in methods]
    return probes


def layer_shares(totals: dict[str, float], pass_s: float) -> dict[str, float]:
    """Self time per layer as a share of the pass; engine spans by bucket."""
    shares: dict[str, float] = {}
    for key, value in totals.items():
        if not key.endswith(".self_s"):
            continue
        name = key[: -len(".self_s")]
        parts = name.split(".")
        if parts[:2] == ["distributed", "engine"]:
            layer = f"engine.{parts[-1]}"
        elif parts[0] == "distributed":
            layer = f"runner.{parts[1]}"
        else:
            layer = name
        shares[layer] = shares.get(layer, 0.0) + value / pass_s
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


# --- jobs ---


class Workload:
    """The generated jobs of one workload, their input files and targets."""

    def __init__(self, name: str, seed: int, work: Path, obliq: ModuleType):
        self.obliq = obliq
        self.jobs = workloads.generate(name, seed)
        self.paths = workloads.write_inputs(self.jobs, work / "inputs")
        self.out = {job.name: work / "out" / job.name for job in self.jobs}
        self.targets = {job.name: reference.target(job) for job in self.jobs}
        self.arrays = {
            job.name: (
                [reference.matrix(m) for m in job.inputs["unitaries"]],
                reference.vector(job.inputs["input_state"]),
                reference.matrix(job.inputs["observable"]),
            )
            for job in self.jobs
            if job.kind == "oqt"
        }
        self._sink = io.StringIO()
        self._verdicts: dict[tuple, tuple[dict, list[str]]] = {}

    def run_pass(self, clock: Calibration, tracer=None) -> tuple[float, float, dict]:
        """Run every job once.

        Returns the pass's wall time, the same time scaled job by job by the
        calibration timed before and after each job, and each job's raw
        result.
        """
        raw, wall, scaled = {}, 0.0, 0.0
        self._sink.seek(0)
        self._sink.truncate()
        cal_before = clock.seconds()
        with contextlib.redirect_stdout(self._sink):
            for job in self.jobs:
                if tracer is not None:
                    tracer.job = job.name
                start = perf_counter()
                raw[job.name] = self._run_job(job)
                elapsed = perf_counter() - start
                cal_after = clock.seconds()
                wall += elapsed
                scaled += elapsed * 2 * clock.ref_s / (cal_before + cal_after)
                cal_before = cal_after
        return wall, scaled, raw

    def _run_job(self, job):
        if job.kind == "cli":
            args = ["run", str(self.paths[job.name]), "--out", str(self.out[job.name])]
            return self.obliq.cli.main(args)
        unitaries, psi, observable = self.arrays[job.name]
        oblivious = self.obliq.oblivious
        try:
            programs = [self.obliq.channels.choi_of(u) for u in unitaries]
            rng = np.random.default_rng(job.inputs["seed"])
            batch = oblivious.oqt_sample_records(programs, psi, job.shots, rng)
            estimate, stderr = oblivious.oqt_estimate_observable(batch, observable, rng=None)
        except Exception as exc:  # a failing job is counted, the run goes on
            return exc
        return (len(batch), estimate, stderr)

    def check(self, raw: dict) -> tuple[list[dict], dict[str, list[str]]]:
        """Check each job's output against its reference.

        Returns per-job facts (records, bytes, estimate, checks) and, for
        each failed job, what failed.
        """
        facts, failures = [], {}
        for job in self.jobs:
            fact, fails = self._check_job(job, raw[job.name])
            facts.append(fact)
            if fails:
                failures[job.name] = fails
        return facts, failures

    def _check_job(self, job, result) -> tuple[dict, list[str]]:
        fact = {"job": job.name, "records": 0, "bytes": 0}
        if job.kind == "oqt":
            if isinstance(result, Exception):
                return fact, [f"{type(result).__name__}: {result}"]
            fact["records"], estimate, fact["stderr"] = result
            return self._verdict(job, fact, estimate, [])
        if result != 0:
            return fact, [f"exit code {result}"]
        try:
            data = (self.out[job.name] / "records.jsonl").read_bytes()
            summary = (self.out[job.name] / "summary.csv").read_bytes()
        except OSError as exc:
            return fact, [f"unreadable artifacts: {exc!r}"]
        # A job's artifacts are the same on every pass; equal bytes get the
        # verdict they got before.
        key = (job.name, hashlib.sha256(data).digest(), hashlib.sha256(summary).digest())
        if key not in self._verdicts:
            self._verdicts[key] = self._check_artifacts(job, fact, data, summary)
        return self._verdicts[key]

    def _check_artifacts(self, job, fact: dict, data: bytes, summary: bytes) -> tuple[dict, list[str]]:
        fact["records"] = data.count(b"\n")
        fact["bytes"] = len(data)
        try:
            row = next(csv.DictReader(io.StringIO(summary.decode())))
            estimate, fact["stderr"] = float(row["estimate"]), float(row["stderr"])
            records = reference.read_records(data)
        except (ValueError, KeyError, StopIteration) as exc:
            return fact, [f"unreadable artifacts: {exc!r}"]
        fails = []
        branch = self.targets[job.name].branch_probability
        if branch is not None and any(abs(r.get("branch_probability", -1) - branch) > 1e-9 for r in records):
            fails.append(f"branch probability differs from {branch!r}")
        return self._verdict(job, fact, estimate, records, fails)

    def _verdict(self, job, fact: dict, estimate: float, records: list[dict], fails=None):
        target = self.targets[job.name]
        fails = list(fails or [])
        fact["estimate"], fact["target"] = estimate, target.value
        if fact["records"] != job.shots:
            fails.append(f"{fact['records']} records for {job.shots} shots")
        try:
            if target.exact:
                verdicts = [reference.check_exact(target, estimate)]
            else:
                verdicts = reference.check_sampled(target, estimate, job.shots, records)
        except (KeyError, TypeError) as exc:
            return fact, fails + [f"records lack a field: {exc!r}"]
        fact["checks"] = len(verdicts)
        widest = max(verdicts, key=lambda v: v.half_width)
        fact["widest_check"] = [widest.check, widest.half_width]
        fails += [f"{v.check}: {v.detail}" for v in verdicts if not v.ok]
        return fact, fails

    def digests(self) -> dict[str, dict[str, str]]:
        return {
            job.name: {
                artifact: _sha256(self.out[job.name] / artifact)
                for artifact in ("records.jsonl", "summary.csv")
                if (self.out[job.name] / artifact).exists()
            }
            for job in self.jobs
            if job.kind == "cli"
        }


# --- measurement ---


def _setup_probe_times(args) -> list[float]:
    """Set-up time of fresh processes, each importing and warming up anew."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "1", "--trace", "0", "--setup-only",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND values above it, and
    that percentile."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < 0:
        raise ValueError(f"{len(ordered)} passes are too few for a tail")
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        obliq = _import_obliq()
    except ImportError as exc:
        print(f"cannot import obliq from the checkout: {exc}", file=sys.stderr)
        return 2

    work = WORK / (args.workload + ("-probe" if args.setup_only else ""))
    shutil.rmtree(work, ignore_errors=True)

    # --- set-up: import, inputs, references, one checked warm-up pass ---
    wl = Workload(args.workload, args.seed, work, obliq)
    clock = Calibration(CALIBRATION[args.workload])
    warm_wall, warm_scaled, raw = wl.run_pass(clock)
    facts, failures = wl.check(raw)
    setup_raw = perf_counter() - T_PROCESS
    # The warm-up pass is scaled job by job, as every pass is; the rest of
    # set-up by the calibration timed right after it.
    setup_s = (setup_raw - warm_wall) * clock.scale() + warm_scaled
    if args.setup_only:
        print(repr(setup_s))
        return 0
    attempted, failed = len(wl.jobs), len(failures)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "commit": _git_commit(),
            "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED,
            "calibration": CALIBRATION[args.workload],
            "cal_ref_s": clock.ref_s,
        },
        "digests": wl.digests(),
        "warmup": facts,
        "failures": failures,
    }

    # --- timed passes ---
    tracer = tracing.Tracer()
    probes = layer_probes(obliq)
    plain, traced, raw_plain, layer_runs = [], [], [], []
    t_begin = perf_counter()
    while True:
        trace_this = bool(args.trace) and len(traced) < len(plain)
        if trace_this:
            tracer.clear()
            with tracer.installed(probes):
                wall, scaled, raw = wl.run_pass(clock, tracer)
        else:
            wall, scaled, raw = wl.run_pass(clock)
        facts, failures = wl.check(raw)
        attempted += len(wl.jobs)
        failed += len(failures)
        for name, fails in failures.items():
            detail["failures"].setdefault(name, fails)
        if trace_this:
            traced.append(scaled)
            totals = tracing.layer_totals(tracer.spans(), tracer.counts)
            totals = {k: v * scaled / wall if k.endswith("_s") else v for k, v in totals.items()}
            totals["cli.records.lines"] = sum(f["records"] for f in facts)
            totals["cli.records.bytes"] = sum(f["bytes"] for f in facts)
            layer_runs.append(totals)
        else:
            plain.append(scaled)
            raw_plain.append(wall)
        done = perf_counter() - t_begin >= args.seconds
        enough = len(traced) >= MIN_TRACE_PASSES if args.trace else len(plain) >= MIN_PASSES
        if done and enough:
            break

    if args.trace:
        wall = statistics.median(traced)
        metrics = {
            m["name"]: statistics.median(run.get(m["name"], 0.0) for run in layer_runs)
            for m in spec["per_layer"]
            if m["name"] != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = wall - statistics.median(plain)
        unit = {m["name"]: m["unit"] for m in spec["per_layer"]}
        detail["passes"] = {"untraced": len(plain), "traced": len(traced)}
        detail["layer_shares"] = layer_shares(metrics, wall)
        with open(work / "spans.jsonl", "w") as fh:
            for span in tracer.spans():
                fh.write(json.dumps(span.__dict__) + "\n")
    else:
        tail_s, tail_pct = tail(plain)
        setups = [setup_s] + _setup_probe_times(args)
        metrics = {
            "wall_s": statistics.median(plain),
            "wall_s_tail": tail_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "correct_ratio": (attempted - failed) / attempted,
        }
        unit = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        detail["passes"] = len(plain)
        detail["pass_s"] = plain
        detail["wall_s_tail"] = {"percentile": tail_pct, "samples": len(plain)}
        detail["setup_samples"] = setups
        detail["unscaled"] = {
            "wall_s": statistics.median(raw_plain),
            "wall_s_tail": tail(raw_plain)[0],
            "setup_s": setup_raw,
            "pass_s": raw_plain,
        }

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit[name]} for name in unit},
    }
    (work / "result.json").write_text(json.dumps({"detail": detail, "result": result}, indent=2) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
