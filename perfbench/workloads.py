"""The three benchmark workloads: one op each, its output check, its quality.

Each workload loads a different layer of ``subdata``:

- ``simulate``: one repetition of the simulation study. The OSS greedy
  dominates and ``datagen`` runs on every op; ``io`` is never called and
  there is a single k, so io or prepare-once-across-k changes show no gain.
- ``bootstrap``: one replicate of the default bootstrap plan (24
  selections on resampled data full of duplicate rows). levss (SVD and
  argsort, 16 factorizations per op) and OSS share the time; ``io`` is
  bypassed.
- ``select-csv``: ``subdata select --method levss`` on a stored 200k-row
  CSV, in process. ``read_csv`` dominates; the row-by-row CSV writer runs
  in set-up.

Timings on a shared host drift by tens of percent from minute to minute,
because other tenants load the same cores and memory. Each workload
therefore carries a host-speed probe: fixed work of the same kind as its
ops, done with numpy or the standard library only, never with ``subdata``.
The benchmark times the probe before every op and reports op times in
probe units beside the raw seconds. A change to ``subdata`` moves both in
the same proportion; host drift slows op and probe alike and cancels.

The workloads call the program through module attributes
(``bench.run_simulation``, ``cli.main``) so a :class:`tracing.Tracer`
sees every call. simulate and bootstrap are judged from the records the
program returns; select-csv's output is checked against a hat diagonal
computed with numpy alone, never with ``subdata.linalg``.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from subdata import bench, cli, datagen
from subdata import io as data_io

SIMULATE_SELECTORS = ("levss", "iboss", "oss", "uniform")


def _records_digest(records) -> bytes:
    """Every non-timing field of every record, at round-trip precision."""
    rows = []
    for r in records:
        rows.append(repr((r.repetition, r.selector, r.k, r.k_star,
                          r.mse_intercept, r.mse_slopes, r.mse_main,
                          r.mse_interaction, r.logdet, r.failed, r.error)))
    return "\n".join(rows).encode()


def _records_problem(records, expected: int) -> str | None:
    flagged = [r for r in records if r.failed]
    if flagged:
        return f"{len(flagged)} flagged record(s), first: {flagged[0].error}"
    if len(records) != expected:
        return f"{len(records)} records, expected {expected}"
    return None


@dataclass(frozen=True)
class Quality:
    """Per-fit quality of one op: squared slope errors and information logdets."""

    slope_sq_errors: tuple[float, ...]
    logdets: tuple[float, ...]
    params: int


class NumpyProbe:
    """Probe for the numpy-bound workloads, on fixed n x p data.

    The mix of one simulate op in plain numpy: a QR and a stable argsort
    over n (levss), ``steps`` OSS-like greedy steps (a float32 sign
    mat-vec, squared accumulation and an argmin over n) and a normal draw
    (datagen).
    """

    def __init__(self, n: int, p: int, steps: int):
        self.steps = steps
        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((n, p))
        self.scores = rng.random(n)
        sgn = np.sign(self.A).astype(np.float32)
        self.paired = np.concatenate([sgn, np.abs(sgn)], axis=1)

    def __call__(self) -> None:
        n, p = self.A.shape
        np.linalg.qr(self.A, mode="r")
        np.argsort(-self.scores, kind="stable")
        acc = np.zeros(n)
        for j in range(self.steps):
            d = (self.paired @ self.paired[j % n]).astype(np.float64)
            d *= 0.5
            acc += d * d - self.scores * d
            acc[j % n] = np.inf
            int(np.argmin(acc))
        np.random.default_rng(1).standard_normal((n, p))


class CsvProbe:
    """Probe for select-csv: a stdlib parse of the first rows of the input."""

    def __init__(self, path: Path, rows: int):
        with open(path, newline="") as fh:
            self.text = "".join(itertools.islice(fh, rows + 1))

    def __call__(self) -> None:
        rows = list(csv.reader(io.StringIO(self.text)))
        [[float(cell) for cell in row] for row in rows[1:]]


class Simulate:
    name = "simulate"

    def __init__(self, n: int = 100_000, p: int = 10, k: int = 200):
        self.n, self.p, self.k = n, p, k

    def setup(self, seed: int, workdir: Path) -> None:
        # all data is drawn inside the op
        self.probe = NumpyProbe(self.n, self.p, steps=40)

    def op(self, seed: int):
        cfg = datagen.ScenarioConfig(case="mvnormal", n=self.n, p=self.p,
                                     k=self.k, seed=seed)
        return bench.run_simulation(cfg, list(SIMULATE_SELECTORS), reps=1)

    def check(self, records) -> str | None:
        problem = _records_problem(records, len(SIMULATE_SELECTORS))
        if problem is None and tuple(r.selector for r in records) != SIMULATE_SELECTORS:
            problem = f"unexpected selectors {[r.selector for r in records]}"
        return problem

    def quality(self, records) -> Quality:
        return Quality(tuple(r.mse_slopes for r in records),
                       tuple(r.logdet for r in records), self.p + 1)

    def digest(self, records) -> bytes:
        return _records_digest(records)


class Bootstrap:
    name = "bootstrap"

    def __init__(self, n: int = 100_000, p: int = 10):
        self.n, self.p = n, p
        self.data = None

    def plan(self, seed: int):
        return bench.BootstrapPlan.from_multiples(self.p, n_boot=1, seed=seed)

    def setup(self, seed: int, workdir: Path) -> None:
        cfg = datagen.ScenarioConfig(case="mvnormal", n=self.n, p=self.p,
                                     k=self.p + 1, seed=seed)
        self.data = datagen.gen_dataset(cfg)
        self.probe = NumpyProbe(self.n, self.p, steps=300)

    def op(self, seed: int):
        return bench.run_bootstrap(self.data, self.plan(seed))

    def check(self, records) -> str | None:
        plan = self.plan(0)
        return _records_problem(records, len(plan.k_values) * len(plan.selectors))

    def quality(self, records) -> Quality:
        return Quality(tuple(r.mse_slopes for r in records),
                       tuple(r.logdet for r in records), self.p + 1)

    def digest(self, records) -> bytes:
        return _records_digest(records)


def _ols(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    Z = np.column_stack([np.ones(X.shape[0]), X])
    return np.linalg.lstsq(Z, y, rcond=None)[0]


@dataclass(frozen=True)
class Selection:
    """What one ``subdata select`` call left behind."""

    exit_code: int
    indices: np.ndarray | None
    raw: bytes


class SelectCsv:
    name = "select-csv"

    def __init__(self, n: int = 200_000, p: int = 10, k: int = 500):
        self.n, self.p, self.k = n, p, k
        self.input = self.output = None

    def setup(self, seed: int, workdir: Path) -> None:
        cfg = datagen.ScenarioConfig(case="mvnormal", n=self.n, p=self.p,
                                     k=self.k, seed=seed)
        data = datagen.gen_dataset(cfg)
        self.input = workdir / "input.csv"
        self.output = workdir / "selection.csv"
        data_io.write_dataset(data, self.input)
        self.probe = CsvProbe(self.input, rows=self.n // 5)
        # independent oracle: hat diagonal from numpy's own QR
        X, y = data.values, data.response
        Q = np.linalg.qr(X, mode="reduced")[0]
        hat = np.einsum("ij,ij->i", Q, Q)
        self.top = frozenset(np.argsort(-hat, kind="stable")[:self.k].tolist())
        self.X, self.y = X, y
        self.full_slopes = _ols(X, y)[1:]

    def op(self, seed: int) -> Selection:
        self.output.unlink(missing_ok=True)
        code = cli.main(["select", "--input", str(self.input), "--response", "y",
                         "--method", "levss", "--k", str(self.k),
                         "--output", str(self.output)])
        if not self.output.exists():
            return Selection(code, None, b"")
        raw = self.output.read_bytes()
        lines = raw.decode().split()
        indices = np.array([int(v) for v in lines[1:]], dtype=np.int64) \
            if lines[:1] == ["index"] else None
        return Selection(code, indices, raw)

    def check(self, sel: Selection) -> str | None:
        if sel.exit_code != 0:
            return f"exit code {sel.exit_code}"
        idx = sel.indices
        if idx is None:
            return "no readable selection file"
        if idx.size != self.k:
            return f"{idx.size} indices, expected {self.k}"
        if np.unique(idx).size != idx.size:
            return "duplicate indices"
        if idx.min() < 0 or idx.max() >= self.n:
            return "index out of range"
        if set(idx.tolist()) != self.top:
            return f"selection differs from the top {self.k} of the hat diagonal"
        return None

    def quality(self, sel: Selection) -> Quality:
        Xs, ys = self.X[sel.indices], self.y[sel.indices]
        err = _ols(Xs, ys)[1:] - self.full_slopes
        Z = np.column_stack([np.ones(Xs.shape[0]), Xs])
        sign, logdet = np.linalg.slogdet(Z.T @ Z)
        return Quality((float(err @ err),),
                       (float(logdet) if sign > 0 else -math.inf,), self.p + 1)

    def digest(self, sel: Selection) -> bytes:
        return sel.raw


WORKLOADS = {w.name: w for w in (Simulate, Bootstrap, SelectCsv)}
