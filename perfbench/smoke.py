"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py        # or: python3 -m pytest perfbench/smoke.py

Checks that every workload runs and passes its output check, that every
end-to-end metric prints with its unit, that a corrupted output counts as
a failed op, that a traced run leaves every ``subdata`` attribute as it
found it, that ``BENCHMARK.json`` names exactly the metrics the runs emit,
and that the benchmark refuses to run without the package sources.
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run

run.load_subdata()

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 12345

TINY = {
    "simulate": lambda: workloads.Simulate(n=2_000, p=4, k=40),
    "bootstrap": lambda: workloads.Bootstrap(n=2_000, p=4),
    "select-csv": lambda: workloads.SelectCsv(n=2_000, p=4, k=50),
}


@contextlib.contextmanager
def workdir():
    path = run.OUT / f"smoke-{SEED}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def test_every_workload_runs_and_prints_every_metric():
    assert set(TINY) == set(workloads.WORKLOADS)
    for name, make in TINY.items():
        buf = io.StringIO()
        with workdir() as wd, contextlib.redirect_stdout(buf):
            values, attempted, failed, _ = run.run_untraced(make(), SEED, 0.0, wd)
        assert attempted >= run.MIN_OPS and failed == 0, (name, failed)
        for metric, unit in run.UNITS.items():
            assert re.search(rf"^\s+{metric}\s+\S+\s+{re.escape(unit)}\b",
                             buf.getvalue(), re.M), (name, metric)
            assert values[metric] > 0 or metric == "failed_ops_share" \
                or metric == "slope_err_log10", (name, metric, values[metric])


def _corrupt_selection(sel):
    idx = sel.indices.copy()
    idx[1] = idx[0]
    return replace(sel, indices=idx)


def _flag_first_record(records):
    return [replace(records[0], failed=True, error="injected")] + records[1:]


def test_corrupted_output_counts_as_failed():
    corruptions = {"select-csv": _corrupt_selection,
                   "simulate": _flag_first_record,
                   "bootstrap": _flag_first_record}
    for name, corrupt in corruptions.items():
        workload = TINY[name]()
        with workdir() as wd:
            workload.setup(SEED, wd)
            op = workload.op
            workload.op = lambda seed: corrupt(op(seed))
            phase, _ = run.timed_phase(workload, SEED, 0.0, min_ops=3)
        assert phase.failed == len(phase.seconds) == 3, (name, phase.problems)
        values, _ = run.end_to_end(workload, phase, 1.0)
        assert values["failed_ops_share"] == 1.0 and values["ok_ops_share"] == 0.0


def _attributes() -> dict:
    from subdata.linalg import DataMatrix

    snap = {(m.__name__, k): v for m in tracing.subdata_modules()
            for k, v in vars(m).items()}
    snap[("DataMatrix", "__post_init__")] = DataMatrix.__post_init__
    return snap


def test_traced_run_restores_every_attribute():
    for name, make in TINY.items():
        before = _attributes()
        with workdir() as wd:
            values, attempted, failed, extra = run.run_traced(make(), SEED, 0.0, wd,
                                                              paired=True)
        after = _attributes()
        assert before.keys() == after.keys()
        changed = [k for k in before if before[k] is not after[k]]
        assert not changed, changed
        assert failed == 0 and attempted == 2 * run.MIN_TRACED_OPS
        assert values["linalg.thin_svd.calls"] > 0, name  # reached via selectors
        if name == "select-csv":
            assert values["io.read_csv.s"] > 0 and values["io.write_dataset.s"] > 0
            assert "io.read_csv.s" not in extra["absent"]
        else:
            assert extra["absent"]["io.read_csv.s"] == "never called on this workload"


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: run.UNITS[k] for k in run.GATED}
    assert [m["name"] for m in spec["per_layer"]] == list(run.layer_metric_units())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_metric_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_sources():
    bare = run.OUT / f"smoke-bare-{SEED}"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "simulate",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} smoke checks passed")
