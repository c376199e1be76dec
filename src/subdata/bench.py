"""Simulation, timing, and bootstrap harnesses over the selectors.

Per-repetition behavior is fully determined by ``base_seed +
repetition_index``, so runs are reproducible record for record, whether
repetitions execute serially or on a process pool. The pool size is
set by the SUBDATA_THREADS environment variable (default 1) and never
exceeds the repetition count or the machine's CPU count.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .datagen import ScenarioConfig, gen_covariates, gen_response
from .errors import ConfigError, SubdataError
from .linalg import DataMatrix, blas_threads, logdet_info, positive_integer
from .regression import (LinearFit, adjusted_intercept, expand_interactions,
                         expanded_column_count, fit_ols, with_intercept)
from .selectors import (
    LevssConfig,
    SelectionResult,
    _iboss_size,
    _levss_size,
    _stopping_threshold,
    iboss_tails,
    rank_by_leverage,
    select_iboss,
    select_levss,
    select_oss,
    select_uniform,
)

SELECTOR_NAMES = ("levss", "iboss", "oss", "uniform")

THREADS_ENV_VAR = "SUBDATA_THREADS"

RNG_LABEL = "numpy default_rng (PCG64)"

# BLAS threads run_timing times the selectors on
TIMING_BLAS_THREADS = 1

# design name -> the one selector it applies to (None: every selector)
_DESIGN_SELECTOR = {"main": None, "expanded": "iboss", "intercept": "levss"}


@dataclass(frozen=True)
class SelectorSpec:
    """A selector plus the per-method options the harness understands.

    ``threshold`` applies to the leverage selector only and must be at
    least 1, as in :class:`~subdata.selectors.LevssConfig`. ``design``
    names the matrix the selector sees besides the raw covariates
    ("main"): "expanded" applies to the extreme-value selector only and
    hands it the interaction-expanded design; "intercept" applies to
    the leverage selector only and hands it [1, X], so that leverage
    and the stopping rule are those of the model every fit uses.
    """

    name: str
    threshold: float | None = None
    design: str = "main"

    def __post_init__(self):
        if self.name not in SELECTOR_NAMES:
            raise ConfigError(
                f"unknown selector {self.name!r}, expected one of {SELECTOR_NAMES}"
            )
        if self.threshold is not None:
            if self.name != "levss":
                raise ConfigError("threshold only applies to the levss selector")
            object.__setattr__(self, "threshold", _stopping_threshold(self.threshold))
        if self.design not in _DESIGN_SELECTOR:
            raise ConfigError(
                f"design must be one of {tuple(_DESIGN_SELECTOR)}, got {self.design!r}"
            )
        owner = _DESIGN_SELECTOR[self.design]
        if owner is not None and self.name != owner:
            raise ConfigError(
                f"design={self.design!r} only applies to the {owner} selector"
            )

    @property
    def label(self) -> str:
        """Stable string used in records, CSV rows, and summaries."""
        parts = [self.name]
        if self.threshold is not None:
            t = self.threshold
            parts.append("T=inf" if math.isinf(t) else f"T={t:g}")
        if self.design != "main":
            parts.append(f"design={self.design}")
        return ":".join(parts)


def _coerce_specs(selectors) -> tuple[SelectorSpec, ...]:
    specs = []
    for s in selectors:
        specs.append(SelectorSpec(s) if isinstance(s, str) else s)
    if not specs:
        raise ConfigError("need at least one selector")
    return tuple(specs)


class _Preparation:
    """Shared work for the cells of one selector and design on one dataset.

    Every (k, threshold, seed) cell of the group takes one piece of work
    from :meth:`shared`, made when a cell first needs it from the design
    the spec names ([1, X] for design="intercept", the interaction
    expansion for design="expanded"): levss the leverage ranking of its
    design, iboss the tails of every column of its design to the largest
    k of the grid (cut to n), and oss one greedy run to ``oss_k``, the
    largest k of the grid it can serve (2 <= k < n; the greedy is
    prefix-consistent, so every smaller k is its first k rows). Only the
    ranking, the tails or the greedy's result is kept, not the design. A
    preparation that raises is not kept, so every cell that needs it
    raises the same error. Uniform draws follow the seed and share
    nothing.
    """

    def __init__(self, data: DataMatrix, k_values):
        self.data = data
        self.depth = max(k_values)
        self.oss_k = max((k for k in k_values if 2 <= k < data.n), default=0)
        self._shared = None

    def shared(self, spec: SelectorSpec):
        if self._shared is None:
            if spec.design == "intercept":
                matrix = with_intercept(self.data.values)
            elif spec.design == "expanded":
                matrix = expand_interactions(self.data.values)
            else:
                matrix = self.data
            if spec.name == "levss":
                self._shared = rank_by_leverage(matrix)
            elif spec.name == "iboss":
                self._shared = iboss_tails(matrix, self.depth)
            else:
                self._shared = select_oss(matrix, self.oss_k)
        return self._shared


def _design_width(spec: SelectorSpec, p: int) -> int:
    """Column count of the matrix ``spec``'s selector sees for p covariates."""
    if spec.design == "intercept":
        return p + 1
    if spec.design == "expanded":
        return expanded_column_count(p)
    return p


def _run_selector(spec: SelectorSpec, data: DataMatrix, k: int, seed: int,
                  prep: _Preparation | None = None) -> SelectionResult:
    """Run the selector ``spec`` names on ``data``.

    ``prep`` is a preparation of ``data`` for a k grid and for
    ``spec``'s selector and design; without one, the call prepares for
    its own k alone. k is checked against the design's shape before
    any preparation is made, so a k the selector cannot serve raises
    ConfigError without factoring or sorting. The records are the same
    either way, timings aside. This is the only place a SelectorSpec
    turns into a selector call.
    """
    prep = prep or _Preparation(data, (k,))
    width = _design_width(spec, data.p)
    if spec.name == "levss":
        config = LevssConfig(k=k, threshold=spec.threshold, seed=seed)
        _levss_size(data.n, width, config.k)
        return select_levss(prep.shared(spec), config)
    if spec.name == "iboss":
        k = _iboss_size(data.n, width, k)
        return select_iboss(prep.shared(spec), k)
    if spec.name == "oss":
        if not 2 <= k <= prep.oss_k:
            return select_oss(data, k)  # a k the greedy does not cover
        greedy = prep.shared(spec)
        return replace(greedy, indices=greedy.indices[:k].copy(), k_star=k)
    return select_uniform(data, k, seed)


@dataclass(frozen=True)
class MetricsRecord:
    """One selector run on one repetition.

    Squared-error fields compare the adjusted-intercept subdata fit to
    the scenario truth (or, for the bootstrap, to the full-data fit).
    ``mse_main`` and ``mse_interaction`` split the slope error between
    first-order and interaction coefficients and are None outside
    interaction scenarios. ``failed`` records flagged repetitions that
    aggregation must exclude.

    ``elapsed_select`` is the selection's wall-clock seconds. Where
    cells on one dataset share a preparation (a levss ranking, the iboss
    tails, the OSS greedy), each cell counts that preparation in full,
    so it reads as if the cell had prepared alone.
    """

    repetition: int
    selector: str
    k: int
    k_star: int
    mse_intercept: float
    mse_slopes: float
    mse_main: float | None
    mse_interaction: float | None
    logdet: float
    elapsed_select: float
    elapsed_fit: float
    failed: bool = False
    error: str = ""


def resolve_workers() -> int:
    """Worker count from SUBDATA_THREADS, else 1."""
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        val = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
    return max(1, val)


def _failure_record(rep: int, spec: SelectorSpec, k: int, exc: Exception) -> MetricsRecord:
    return MetricsRecord(
        repetition=rep, selector=spec.label, k=k, k_star=0,
        mse_intercept=math.nan, mse_slopes=math.nan,
        mse_main=None, mse_interaction=None, logdet=math.nan,
        elapsed_select=math.nan, elapsed_fit=math.nan,
        failed=True, error=f"{type(exc).__name__}: {exc}",
    )


class _CellScorer:
    """Scores selections on one dataset against one truth.

    Selectors see ``data``; fits see ``design`` against ``y`` and take
    the intercept adjusted to the full-data means. With ``split`` set,
    the first ``split`` slope errors are first-order terms and the rest
    interaction terms. Simulation and bootstrap share this one path.
    """

    def __init__(self, data: DataMatrix, design: np.ndarray, y: np.ndarray,
                 truth: LinearFit, sigma2: float, split: int | None = None):
        self.data, self.design, self.y = data, design, y
        self.truth, self.sigma2, self.split = truth, sigma2, split
        self.design_means = design.mean(axis=0)
        self.y_mean = float(y.mean())

    def score_grid(self, rep: int, specs: tuple[SelectorSpec, ...], k_values,
                   seed: int) -> list[MetricsRecord]:
        """Score every (k, spec) cell; records come k-major, specs in order.

        Cells run grouped by selector and design, each group sharing one
        :class:`_Preparation` that is dropped when the group is done, so
        a levss ranking is never held beside another selector's scratch
        memory.
        """
        groups: dict[tuple[str, str], list[int]] = {}
        for i, spec in enumerate(specs):
            groups.setdefault((spec.name, spec.design), []).append(i)
        scored = {}
        for members in groups.values():
            prep = _Preparation(self.data, k_values)
            for i in members:
                for j, k in enumerate(k_values):
                    scored[i, j] = self.score(rep, specs[i], k, seed, prep)
        return [scored[i, j] for j in range(len(k_values)) for i in range(len(specs))]

    def score(self, rep: int, spec: SelectorSpec, k: int, seed: int,
              prep: _Preparation) -> MetricsRecord:
        """Select, fit and score one cell; a failure yields a flagged record."""
        try:
            sel = _run_selector(spec, self.data, k, seed, prep)
            t0 = time.perf_counter()
            fit = fit_ols(self.design[sel.indices], self.y[sel.indices])
            fit = adjusted_intercept(fit, self.design_means, self.y_mean)
            t_fit = time.perf_counter() - t0
            ld = logdet_info(with_intercept(self.design[sel.indices]), self.sigma2)
        except (SubdataError, np.linalg.LinAlgError) as exc:
            return _failure_record(rep, spec, k, exc)
        err = fit.slopes - self.truth.slopes
        mse_main = mse_inter = None
        if self.split is not None:
            q = self.split
            mse_main = float(err[:q] @ err[:q])
            mse_inter = float(err[q:] @ err[q:])
        return MetricsRecord(
            repetition=rep, selector=spec.label, k=k, k_star=sel.k_star,
            mse_intercept=float((fit.intercept - self.truth.intercept) ** 2),
            mse_slopes=float(err @ err),
            mse_main=mse_main, mse_interaction=mse_inter,
            logdet=ld, elapsed_select=sel.elapsed, elapsed_fit=t_fit,
        )


def _warn_failures(records: list[MetricsRecord], unit: str) -> None:
    """One warning per flagged record; ``unit`` names what failed."""
    for r in records:
        if r.failed:
            warnings.warn(
                f"{unit} {r.repetition}, selector {r.selector} failed and is "
                f"excluded from aggregates: {r.error}",
                stacklevel=3,
            )


def _simulate_rep(config: ScenarioConfig, specs: tuple[SelectorSpec, ...],
                  rep: int) -> list[MetricsRecord]:
    cfg = replace(config, seed=config.seed + rep)
    X = gen_covariates(cfg)
    y = gen_response(X, cfg)
    design = expand_interactions(X.values) if cfg.interaction else X.values
    scorer = _CellScorer(X, design, y, LinearFit(cfg.beta0, cfg.beta_slopes),
                         cfg.sigma2, split=cfg.p if cfg.interaction else None)
    return scorer.score_grid(rep, specs, (cfg.k,), cfg.seed)


def _simulate_rep_pinned(config: ScenarioConfig, specs: tuple[SelectorSpec, ...],
                         rep: int, threads: int) -> list[MetricsRecord]:
    """:func:`_simulate_rep` with every OpenBLAS library pinned to ``threads``."""
    with blas_threads(threads):
        return _simulate_rep(config, specs, rep)


def run_simulation(config: ScenarioConfig, selectors, reps: int) -> list[MetricsRecord]:
    """Generate, select, fit, and score ``reps`` independent repetitions.

    Repetition r draws its dataset from seed ``config.seed + r``, runs
    every selector on it, fits OLS with the adjusted intercept on each
    subdata, and records squared estimation errors, the subdata
    information log-determinant, and wall-clock timings. A selector
    failure yields a flagged record (and a warning), never a silent
    drop, so record counts are always reps x selectors.

    Parallel execution over repetitions (SUBDATA_THREADS workers, at
    most ``reps`` and the CPU count) produces byte-identical records to
    the serial run because each repetition is a pure function of its
    own seed. Each worker runs its repetitions with every OpenBLAS
    library pinned to cpu_count // workers threads (at least one), so
    workers x BLAS threads never exceeds the CPU count.
    """
    reps = positive_integer(reps, "reps")
    specs = _coerce_specs(selectors)
    cpus = os.cpu_count() or 1
    workers = min(resolve_workers(), reps, cpus)
    if workers == 1:
        per_rep = [_simulate_rep(config, specs, r) for r in range(reps)]
    else:
        threads = max(1, cpus // workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(_simulate_rep_pinned, [config] * reps,
                                    [specs] * reps, range(reps),
                                    [threads] * reps))
    records = [rec for chunk in per_rep for rec in chunk]
    _warn_failures(records, "repetition")
    return records


@dataclass(frozen=True)
class TimingRecord:
    """Selection-time summary for one selector at one data size."""

    n: int
    selector: str
    reps: int
    mean_seconds: float
    median_seconds: float


def run_timing(n_values, p: int, k: int, selectors, reps: int = 5,
               case: str = "uniform01", base_seed: int = 0) -> list[TimingRecord]:
    """Wall-clock selection time per selector across data sizes.

    For each n, one warm-up repetition is run and discarded, then
    ``reps`` timed repetitions follow, each on a freshly seeded dataset
    shared by all selectors. Only the selection call is timed (the
    selector measures itself), and every call takes the one selection
    path with a preparation for its one k, so each time is one
    selector's whole cost; generation and fitting stay outside.
    Runs are strictly serial so timings are not polluted by sibling
    workers. Reported statistics are the mean and the median over
    repetitions.

    The grid runs with every loaded OpenBLAS library pinned to
    TIMING_BLAS_THREADS threads (``linalg.blas_threads``), so the times
    measure the selectors' work rather than a BLAS thread pool's
    scheduling, which dominates small-n calls on a busy host. Where no
    OpenBLAS library is found, a warning says so.
    """
    reps = positive_integer(reps, "reps")
    n_values = [positive_integer(n, "n") for n in n_values]
    if not n_values:
        raise ConfigError("n_values must not be empty")
    specs = _coerce_specs(selectors)
    out = []
    with blas_threads(TIMING_BLAS_THREADS) as pinned:
        if not pinned:
            warnings.warn("no OpenBLAS library found to pin; selection times "
                          "include the BLAS thread pool", stacklevel=2)
        for n in n_values:
            times: dict[str, list[float]] = {s.label: [] for s in specs}
            for rep in range(reps + 1):  # rep 0 is the discarded warm-up
                cfg = ScenarioConfig(case=case, n=n, p=p, k=k,
                                     seed=base_seed + rep)
                X = gen_covariates(cfg)
                for spec in specs:
                    res = _run_selector(spec, X, k, seed=cfg.seed)
                    if rep > 0:
                        times[spec.label].append(res.elapsed)
            for spec in specs:
                vals = np.asarray(times[spec.label])
                out.append(TimingRecord(
                    n=n, selector=spec.label, reps=reps,
                    mean_seconds=float(vals.mean()),
                    median_seconds=float(np.median(vals)),
                ))
    return out


def default_bootstrap_selectors() -> tuple[SelectorSpec, ...]:
    """Threshold ladder for the leverage selector, plus the two rivals."""
    return (
        SelectorSpec("levss", threshold=25.0),
        SelectorSpec("levss", threshold=20.0),
        SelectorSpec("levss", threshold=15.0),
        SelectorSpec("levss"),
        SelectorSpec("iboss"),
        SelectorSpec("oss"),
    )


@dataclass(frozen=True)
class BootstrapPlan:
    """Bootstrap study layout: replicate count, k grid, selector set.

    ``resample=False`` replaces every replicate with the original data
    in original order, which is the degenerate mode used to validate
    the pipeline (a full-size uniform selection then reproduces the
    full-data fit exactly).
    """

    k_values: tuple[int, ...]
    n_boot: int = 100
    selectors: tuple[SelectorSpec, ...] = field(
        default_factory=default_bootstrap_selectors
    )
    seed: int = 0
    resample: bool = True

    def __post_init__(self):
        object.__setattr__(self, "n_boot", positive_integer(self.n_boot, "n_boot"))
        ks = tuple(positive_integer(k, "k") for k in self.k_values)
        if not ks:
            raise ConfigError("k_values must not be empty")
        object.__setattr__(self, "k_values", ks)
        object.__setattr__(self, "selectors", _coerce_specs(self.selectors))

    @classmethod
    def from_multiples(cls, p: int, multiples=(5, 10, 20, 30), **kwargs) -> "BootstrapPlan":
        """k grid as multiples of the covariate count, default 5p..30p."""
        return cls(k_values=tuple(m * p for m in multiples), **kwargs)


def run_bootstrap(data: DataMatrix, plan: BootstrapPlan) -> list[MetricsRecord]:
    """Selector accuracy under resampling, scored against the full fit.

    The full-data OLS estimate on ``data`` serves as the reference
    truth. Each replicate resamples n rows with replacement (seeded by
    ``plan.seed + b``), then every (k, selector) cell selects, fits,
    and records squared deviations of its adjusted-intercept estimate
    from the reference. Log-determinants use sigma2 = 1 since the error
    variance is unknown here.

    Within a replicate every levss cell of one design shares one
    factorization and ranking, every iboss cell of one design one set
    of sorted column tails, and every oss cell the first rows of one
    greedy run to the largest k; the records equal those of cells run
    one by one, and each cell's ``elapsed_select`` counts the shared
    work in full.
    """
    if data.response is None:
        raise ConfigError("bootstrap needs a dataset with a response column")
    n, p = data.n, data.p
    for k in plan.k_values:
        if not (p < k <= n):
            raise ConfigError(f"bootstrap k values must satisfy p < k <= n, got k={k}")
    reference = fit_ols(data.values, data.response)

    records = []
    for b in range(plan.n_boot):
        if plan.resample:
            rng = np.random.default_rng(plan.seed + b)
            rows = rng.integers(0, n, size=n)
            rep_data = data.take(rows)
        else:
            rep_data = data
        scorer = _CellScorer(rep_data, rep_data.values, rep_data.response,
                             reference, 1.0)
        records.extend(scorer.score_grid(b, plan.selectors, plan.k_values,
                                         plan.seed + b))
    _warn_failures(records, "bootstrap replicate")
    return records


def _dist_stats(values: np.ndarray) -> dict:
    return {
        "mean": float(values.mean()),
        "q25": float(np.percentile(values, 25)),
        "median": float(np.percentile(values, 50)),
        "q75": float(np.percentile(values, 75)),
    }


def summarize(records, config_echo: dict | None = None) -> dict:
    """Aggregate records into the JSON-ready summary document.

    Groups by (selector, k); flagged records are excluded from every
    statistic but counted per group. Slope MSEs additionally get log10
    statistics when all values in the group are positive. The summary
    carries the RNG identifier and an echo of the run configuration so
    an output file is self-describing.
    """
    recs = list(records)
    failures = sum(1 for r in recs if r.failed)
    by_key: dict[tuple[str, int], list[MetricsRecord]] = {}
    for r in recs:
        by_key.setdefault((r.selector, r.k), []).append(r)
    groups = []
    for (selector, k), members in by_key.items():
        ok = [r for r in members if not r.failed]
        cell: dict = {
            "selector": selector,
            "k": k,
            "count": len(ok),
            "failures": len(members) - len(ok),
        }
        if ok:
            slopes = np.asarray([r.mse_slopes for r in ok])
            cell["mse_slopes"] = _dist_stats(slopes)
            if np.all(slopes > 0):
                cell["log10_mse_slopes"] = _dist_stats(np.log10(slopes))
            cell["mse_intercept_mean"] = float(np.mean([r.mse_intercept for r in ok]))
            if ok[0].mse_main is not None:
                cell["mse_main_mean"] = float(np.mean([r.mse_main for r in ok]))
                cell["mse_interaction_mean"] = float(
                    np.mean([r.mse_interaction for r in ok]))
            cell["logdet_mean"] = float(np.mean([r.logdet for r in ok]))
            cell["k_star_mean"] = float(np.mean([r.k_star for r in ok]))
            cell["elapsed_select_mean"] = float(
                np.mean([r.elapsed_select for r in ok]))
            cell["elapsed_fit_mean"] = float(np.mean([r.elapsed_fit for r in ok]))
        groups.append(cell)

    summary = {
        "rng": RNG_LABEL,
        "config": dict(config_echo or {}),
        "records": len(recs),
        "failures": failures,
        "groups": groups,
    }
    # intercept-accuracy spread across selectors, reported not asserted
    by_k: dict[int, list[float]] = {}
    for cell in groups:
        if "mse_intercept_mean" in cell and cell["mse_intercept_mean"] > 0:
            by_k.setdefault(cell["k"], []).append(cell["mse_intercept_mean"])
    ratios = {
        str(k): max(v) / min(v) for k, v in by_k.items() if len(v) >= 2 and min(v) > 0
    }
    if ratios:
        summary["diagnostics"] = {"mse_intercept_mean_max_over_min": ratios}
    return summary
