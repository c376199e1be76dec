"""Benchmark of the ``subdata`` package, end to end and layer by layer.

    python3 perfbench/run.py --workload {simulate,bootstrap,select-csv} \
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository: the package is imported from its
``src/`` directory, and the run stops with a non-zero exit code when
those sources are missing. Workloads are described in ``workloads.py``.

Load shape: each run is one fresh process and a closed loop with one
client; the next op starts only when the previous one has returned and
been checked. Op i uses seed + i. BLAS threads stay at the library default
and SUBDATA_THREADS is left as found (the harness runs serially unless it
is set); both are recorded with the host.

``--trace 0`` measures set-up, then times ops, untraced, for at least
``--seconds`` and at least ``MIN_OPS`` ops. ``setup_s`` is the median of
``SETUP_REPS`` fresh interpreters importing ``subdata``, plus the median of
``SETUP_REPS`` rounds of the workload's set-up, plus one warm-up op. Before
each timed op the workload's host-speed probe runs (see ``workloads.py``);
the table shows raw seconds and probe units, and the JSON line carries
the probe-unit figures, which drift far less than raw seconds when the
shared host's speed changes. Output quality and the output digest come from exactly the first
``MIN_OPS`` ops, so they are identical across runs with the same seed.

``--trace 1`` sets up once under the tracer, then alternates an untraced
and a traced run of each op (the tracing overhead is their ratio), and
finally repeats the traced pass in a child process started with
``OPENBLAS_NUM_THREADS=1``, the single-threaded reference.

Every run prints a table, writes a full report (host, per-op times,
digest, layer predictions, spans) under ``.bench_out/`` and ends its
standard output with one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import LAYER_METRICS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

SETUP_REPS = 3
# Output quality and the digest use exactly the first MIN_OPS ops; fewer
# than eleven left bootstrap's probe-unit figures visibly less steady.
MIN_OPS = 11
MIN_TRACED_OPS = 2
# Stop a phase here even short of MIN_OPS, so a run ends well within 180 s.
MAX_PHASE_S = 100.0
REFERENCE_TIMEOUT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "SUBDATA_THREADS")

# Metrics the JSON line carries with --trace 0, in BENCHMARK.json order.
# op_tail_probe is left out: the slow workloads fit about eleven ops in a
# run, so the highest percentile with ten ops beyond it is p9, nearly the
# fastest op, and it is the least steady figure.
GATED = ("ops_per_probe", "op_p50_probe", "cpu_per_op_probe", "peak_rss_mb",
         "setup_s", "ok_ops_share", "info_per_param")
UNITS = {
    "ops_per_s": "op/s", "op_p50_s": "s", "op_tail_s": "s", "cpu_per_op_s": "s",
    "peak_rss_mb": "MiB", "setup_s": "s", "failed_ops_share": "ratio",
    "slope_err_log10": "log10", "ok_ops_share": "ratio", "info_per_param": "info",
    "probe_s": "s", "op_p50_probe": "probe", "op_tail_probe": "probe",
    "cpu_per_op_probe": "probe", "ops_per_probe": "op/probe",
}
# Time-like layer metrics repeated from the single-threaded reference pass.
REFERENCE_UNITS = ("s", "MB/s", "GB/s")


def layer_metric_units() -> dict:
    """Name -> unit of every metric a traced run reports, in order."""
    units = {name: unit for name, unit, *_ in LAYER_METRICS}
    units.update({"trace.ops_per_s_untraced": "op/s", "trace.ops_per_s_traced": "op/s",
                  "trace.overhead_share": "ratio", "st.ops_per_s": "op/s"})
    units.update({f"st.{name}": unit for name, unit, *_ in LAYER_METRICS
                  if unit in REFERENCE_UNITS})
    return units


def load_subdata():
    """Import ``subdata`` from this checkout's sources, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "subdata" / "__init__.py").is_file():
        sys.exit(f"error: no subdata sources under {src}; "
                 f"run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(src))
    import subdata
    return subdata


def host_info(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_config": numpy.show_config(mode="dicts"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


@dataclass
class Phase:
    """The ops of one timed phase."""

    seconds: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    probes: list = field(default_factory=list)  # host-speed probe seconds
    probe_cpu: float = 0.0
    outcomes: list = field(default_factory=list)  # first MIN_OPS; None if failed
    wall: float = 0.0
    cpu: float = 0.0

    @property
    def failed(self) -> int:
        return sum(p is not None for p in self.problems)


def attempt(workload, seed: int):
    """Run one op and check its output: (op seconds, outcome, problem)."""
    t0 = time.perf_counter()
    try:
        outcome = workload.op(seed)
    except Exception as exc:  # a failing op is counted, not fatal
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    try:
        problem = workload.check(outcome)
    except Exception as exc:
        problem = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, outcome, problem


def timed_phase(workload, seed: int, seconds: float, min_ops: int = MIN_OPS,
                tracer=None, paired: bool = False) -> tuple[Phase, Phase]:
    """Closed loop of ops for at least ``seconds`` and ``min_ops`` ops.

    Untraced by default, with the workload's host-speed probe timed before
    each op; probe time is left out of the phase's wall and CPU time. With
    a tracer, each op runs traced; ``paired`` first runs the same op
    untraced. Returns (untraced, traced) phases.
    """
    plain, traced = Phase(), Phase()

    def record(phase: Phase, i: int, result) -> None:
        dt, outcome, problem = result
        phase.seconds.append(dt)
        phase.problems.append(problem)
        if i < min_ops:
            phase.outcomes.append(outcome if problem is None else None)

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    i = 0
    while True:
        if tracer is None:
            c0, p0 = time.process_time(), time.perf_counter()
            workload.probe()
            plain.probes.append(time.perf_counter() - p0)
            plain.probe_cpu += time.process_time() - c0
        if tracer is None or paired:
            record(plain, i, attempt(workload, seed + i))
        if tracer is not None:
            tracer.op = i
            with tracer:
                record(traced, i, attempt(workload, seed + i))
        i += 1
        elapsed = time.perf_counter() - t0
        if (elapsed >= seconds and i >= min_ops) or elapsed >= MAX_PHASE_S:
            break
    for phase in (plain, traced):
        phase.wall = time.perf_counter() - t0 - sum(phase.probes)
        phase.cpu = time.process_time() - cpu0 - phase.probe_cpu
    return plain, traced


def tail(values: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten ops beyond it.

    With ten ops or fewer no such percentile exists; the fastest op stands
    in and the printed note says how many ops lie beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[0], 0.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def quality(workload, outcomes: list) -> tuple[float, float, str]:
    """(slope_err_log10, info_per_param, sha256) over the given outcomes."""
    errs, logdets, params = [], [], 1
    digest = hashlib.sha256()
    for out in outcomes:
        if out is None:
            continue
        q = workload.quality(out)
        errs += q.slope_sq_errors
        logdets += q.logdets
        params = q.params
        digest.update(workload.digest(out))
    # with no valid output at all, quality reads as the worst value
    slope_err = statistics.fmean(math.log10(e) for e in errs) if errs else math.inf
    info = math.exp(statistics.fmean(logdets) / params) if logdets else 0.0
    return slope_err, info, digest.hexdigest()


def end_to_end(workload, phase: Phase, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the notes printed beside them."""
    n = len(phase.seconds)
    tail_s, tail_pct = tail(phase.seconds)
    slope_err, info, digest = quality(workload, phase.outcomes)
    # each op against the probe taken just before it; totals against the mean
    ratios = [op / probe for op, probe in zip(phase.seconds, phase.probes)]
    probe_s = statistics.fmean(phase.probes)
    values = {
        "ops_per_s": n / phase.wall,
        "op_p50_s": statistics.median(phase.seconds),
        "op_tail_s": tail_s,
        "cpu_per_op_s": phase.cpu / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "failed_ops_share": phase.failed / n,
        "slope_err_log10": slope_err,
        "ok_ops_share": 1.0 - phase.failed / n,
        "info_per_param": info,
        "probe_s": probe_s,
    }
    values["ops_per_probe"] = values["ops_per_s"] * probe_s
    values["op_p50_probe"] = statistics.median(ratios)
    values["op_tail_probe"] = tail(ratios)[0]
    values["cpu_per_op_probe"] = values["cpu_per_op_s"] / probe_s
    notes = {
        "ops_per_s": f"{n} ops in {phase.wall:.3f} s",
        "op_tail_s": f"p{tail_pct:.1f} of {n} ops, {min(10, n - 1)} beyond it",
        "slope_err_log10": f"first {len(phase.outcomes)} ops, report only",
        "failed_ops_share": "report only; gated as ok_ops_share",
        "info_per_param": f"exp(mean logdet / params), first {len(phase.outcomes)} ops",
        "probe_s": f"mean of {len(phase.probes)} host-speed probes",
        "op_tail_probe": f"p{tail_pct:.1f} of {n} op/probe ratios",
    }
    return values, {"notes": notes, "digest_sha256": digest}


def print_table(rows) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:<34} {value:>14.6g} {unit:<6} {note}")


def result_line(metrics: dict, units: dict, attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def write_report(name: str, doc: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(doc, indent=2, default=str) + "\n")
    return path


def fresh_import_s() -> float:
    """Seconds for a fresh interpreter to start and import ``subdata``."""
    t0 = time.perf_counter()
    # no timeout: Popen.wait would then poll in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                    "import subdata"], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def run_untraced(workload, seed: int, seconds: float,
                 workdir: Path) -> tuple[dict, int, int, dict]:
    # setup_s: median of a fresh interpreter's import, median of the data
    # and file set-up, and one warm-up op (lazy imports, BLAS threads)
    imports = [fresh_import_s() for _ in range(SETUP_REPS)]
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.setup(seed, workdir)
        setups.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    attempt(workload, seed)
    warmup_s = time.perf_counter() - t0
    phase, _ = timed_phase(workload, seed, seconds)
    values, extra = end_to_end(
        workload, phase, statistics.median(imports) + statistics.median(setups) + warmup_s)
    extra.update({
        "setup": {"import_s": imports, "setup_s": setups, "warmup_s": warmup_s},
        "op_seconds": phase.seconds,
        "probe_seconds": phase.probes,
        "problems": [p for p in phase.problems if p is not None],
    })
    print(f"{workload.name}: seed {seed}, {len(phase.seconds)} ops, "
          f"{phase.failed} failed, digest {extra['digest_sha256'][:16]}")
    print_table((k, v, UNITS[k], extra["notes"].get(k, "")) for k, v in values.items())
    return values, len(phase.seconds), phase.failed, extra


def run_traced(workload, seed: int, seconds: float, workdir: Path,
               paired: bool) -> tuple[dict, int, int, dict]:
    tracer = Tracer()
    with tracer:
        workload.setup(seed, workdir)
    attempt(workload, seed)
    plain, traced = timed_phase(workload, seed, seconds, MIN_TRACED_OPS,
                                tracer=tracer, paired=paired)
    n = len(traced.seconds)
    values, absent = layer_metrics(tracer, n)
    traced_rate = n / sum(traced.seconds)
    extra = {"absent": absent, "traced_op_seconds": traced.seconds,
             "problems": [p for p in plain.problems + traced.problems if p is not None]}
    if paired:
        plain_rate = len(plain.seconds) / sum(plain.seconds)
        values["trace.ops_per_s_untraced"] = plain_rate
        values["trace.ops_per_s_traced"] = traced_rate
        values["trace.overhead_share"] = plain_rate / traced_rate - 1.0
        extra["untraced_op_seconds"] = plain.seconds
    else:
        values["ops_per_s"] = traced_rate
    spans = OUT / f"{workload.name}-seed{seed}-spans{'' if paired else '-st'}.jsonl"
    OUT.mkdir(exist_ok=True)
    tracer.write(spans)
    extra["spans_file"] = str(spans.relative_to(ROOT))
    extra["predictions"] = {
        name: (f"moves {metric} here" if workload.name in where else
               "guard: predicted unchanged" if not where else
               f"moves {metric} on {', '.join(where)}; predicted unchanged here")
        for name, *_rest, (metric, where) in LAYER_METRICS
    }
    attempted = len(plain.seconds) + len(traced.seconds)
    return values, attempted, plain.failed + traced.failed, extra


def reference_pass(args) -> dict:
    """Re-run the traced pass in a child process with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1", "--reference-pass"]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=REFERENCE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: single-thread reference pass exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("simulate", "bootstrap", "select-csv"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reference-pass", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_start = os.getloadavg()
    load_subdata()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    host = host_info(args.seed)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace == 0:
            values, attempted, failed, extra = run_untraced(
                workload, args.seed, args.seconds, workdir)
            metrics, units = {k: values[k] for k in GATED}, UNITS
        else:
            values, attempted, failed, extra = run_traced(
                workload, args.seed, args.seconds, workdir,
                paired=not args.reference_pass)
            # a reference pass reports its own traced ops_per_s
            units = dict(layer_metric_units(), ops_per_s="op/s")
            metrics = values
            if not args.reference_pass:
                ref = reference_pass(args)
                extra["single_thread_pass"] = ref
                attempted += ref["attempted"]
                failed += ref["failed"]
                metrics = {k: values[k] if k in values else ref["metrics"][k[3:]]["value"]
                           for k in layer_metric_units()}
                print(f"{workload.name}: seed {args.seed}, traced per-layer metrics, "
                      f"default BLAS threads (st: OPENBLAS_NUM_THREADS=1)")
                print_table((k, v, units[k],
                             (f"st={metrics['st.' + k]:<10.4g} " if "st." + k in metrics else " " * 14)
                             + (extra["absent"].get(k) or extra["predictions"].get(k, "")))
                            for k, v in values.items())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host["loadavg_start"] = load_start
    host["loadavg_end"] = os.getloadavg()
    suffix = "-st" if args.reference_pass else ""
    report = write_report(
        f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json",
        {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
         "host": host, "metrics": {k: {"value": v, "unit": units[k]}
                                   for k, v in values.items()}, **extra})
    if not args.reference_pass:
        print(f"report: {report.relative_to(ROOT)}")
    print(result_line(metrics, units, attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
