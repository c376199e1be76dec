"""Simulation, timing, and bootstrap harnesses over the selectors.

A simulation repetition or a bootstrap replicate is fully determined by
its seed, so both studies are reproducible record for record, whether
their units run serially or on the one process pool (:func:`_run_units`).
The pool size is set by the SUBDATA_THREADS environment variable
(default 1) and never exceeds the unit count or the CPUs this process may
run on (:func:`usable_cpus`).

Work the harness repeats runs on STUDY_BLAS_THREADS OpenBLAS threads: the
timing grid, each simulation repetition and bootstrap replicate, serial
or pooled, and everything the studies compute in the calling process.
Threaded OpenBLAS workers keep spinning for a while after each threaded
call, beside the single-threaded numpy kernels that make up most of a
unit, and pool workers would otherwise oversubscribe the CPUs.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .datagen import ScenarioConfig, gen_covariates, gen_response
from .errors import ConfigError, SubdataError
from .linalg import (DataMatrix, blas_threads, logdet_from_singular_values,
                     positive_integer, seed_integer)
from .regression import (LinearFit, adjusted_intercept, expand_interactions,
                         expanded_column_count, fit_ols, with_intercept)
from .selectors import (
    LevssConfig,
    Resample,
    SelectionResult,
    _iboss_size,
    _levss_size,
    _oss_size,
    _stopping_threshold,
    iboss_tails,
    rank_by_leverage,
    select_iboss,
    select_levss,
    select_oss,
    select_uniform,
)

# the selectors, each with its rule for the k it can take from n rows of
# a design of the given width (a ConfigError otherwise); uniform
# selection checks k <= n itself
_K_RULES = {
    "levss": _levss_size,
    "iboss": _iboss_size,
    "oss": lambda n, width, k: _oss_size(n, k),
    "uniform": lambda n, width, k: None,
}

SELECTOR_NAMES = tuple(_K_RULES)

THREADS_ENV_VAR = "SUBDATA_THREADS"

RNG_LABEL = "numpy default_rng (PCG64)"

# OpenBLAS threads of the timing grid and of every study unit
STUDY_BLAS_THREADS = 1


class _Design(NamedTuple):
    owner: str | None  # the one selector it applies to; None: every selector
    build: Callable[[DataMatrix], object]  # its matrix from the covariates
    width: Callable[[int], int]  # its column count for p covariates


# the builders call this module's names at call time, so a test that
# replaces bench.expand_interactions sees every expansion
_DESIGNS = {
    "main": _Design(None, lambda data: data, lambda p: p),
    "expanded": _Design("iboss", lambda data: expand_interactions(data.values),
                        expanded_column_count),
    "intercept": _Design("levss", lambda data: with_intercept(data.values),
                         lambda p: p + 1),
}


@dataclass(frozen=True)
class SelectorSpec:
    """A selector plus the per-method options the harness understands.

    Records name a spec by its :attr:`label`, which :meth:`parse` reads
    back. ``threshold`` applies to the leverage selector only and must be
    at least 1, as in :class:`~subdata.selectors.LevssConfig`. ``design``
    names the matrix the selector sees, a row of ``_DESIGNS``: the raw
    covariates ("main", every selector), their interaction expansion
    ("expanded", iboss only) or [1, X] ("intercept", levss only, so that
    leverage and the stopping rule are those of the model every fit uses).
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
        if self.design not in _DESIGNS:
            raise ConfigError(
                f"design must be one of {tuple(_DESIGNS)}, got {self.design!r}"
            )
        owner = _DESIGNS[self.design].owner
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
            short = f"{t:g}"  # only where it reads back as t: labels stay distinct
            parts.append(f"T={short if float(short) == t else repr(t)}")
        if self.design != "main":
            parts.append(f"design={self.design}")
        return ":".join(parts)

    @classmethod
    def parse(cls, label: str) -> "SelectorSpec":
        """The spec whose :attr:`label` is ``label``.

        Grammar ``name[:T=<float>][:design=<name>]``, each option at most
        once and in any order; a bare name is the default spec. T is a
        plain numeral (``float`` would skip ``_`` and spaces). The
        constructor checks the values, T's conversion to float included.
        """
        name, *parts = label.split(":")
        attrs = {"T": "threshold", "design": "design"}
        pairs = [part.partition("=") for part in parts]
        keys = [key for key, _, _ in pairs]
        if len(set(keys)) < len(keys) or any(
                not sep or key not in attrs for key, sep, _ in pairs):
            raise ConfigError(
                f"malformed selector label {label!r}: expected "
                f"name[:T=<float>][:design=<name>], each option at most once"
            )
        options = {attrs[key]: value for key, _, value in pairs}
        if any(c == "_" or c.isspace() for c in options.get("threshold", "")):
            raise ConfigError(f"selector label {label!r}: T must be a plain numeral")
        try:
            return cls(name, **options)
        except ValueError as exc:  # ConfigError is a ValueError too
            raise ConfigError(f"selector label {label!r}: {exc}") from None


def _items(values, what: str) -> tuple:
    """``tuple(values)``; ConfigError naming ``what`` for a string or a non-iterable."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ConfigError(f"expected a sequence of {what}, got {values!r}")
    return tuple(values)


def _coerce_specs(selectors) -> tuple[SelectorSpec, ...]:
    """Specs from a sequence of specs and labels; ConfigError if not, if empty, or on a repeat."""
    specs = tuple(SelectorSpec.parse(s) if isinstance(s, str) else s
                  for s in _items(selectors, "selector labels or specs"))
    for s in specs:
        if not isinstance(s, SelectorSpec):
            raise ConfigError(f"a selector is a label or a SelectorSpec, got {s!r}")
    if not specs:
        raise ConfigError("need at least one selector")
    labels = [s.label for s in specs]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"each selector label may appear once, got {labels}")
    return specs


class _Preparation:
    """Shared work for the cells of one selector and design on one dataset.

    Each cell of the group ``spec`` names hands :meth:`shared` its
    selector's preparer (:func:`_run_selector`), made for the cell's own
    k. The first call builds ``spec``'s design from ``data`` and keeps
    only the preparer's result, not the design, so the first cell that
    asks sizes the preparation for every later one: a caller serves its
    deepest k first (:meth:`_CellScorer.score_grid`). A preparer that
    raises keeps nothing, so the next cell prepares anew. ``data`` may
    be a :class:`~subdata.selectors.Resample`; the "main" design is
    ``data`` itself, so oss then prepares from its row map.
    """

    def __init__(self, data: DataMatrix, spec: SelectorSpec):
        self.data, self.spec = data, spec
        self._shared = None

    def shared(self, prepare):
        """``prepare(design)``, made on the first call and kept."""
        if self._shared is None:
            self._shared = prepare(_DESIGNS[self.spec.design].build(self.data))
        return self._shared


def _servable_k(spec: SelectorSpec, n: int, p: int, k) -> int:
    """``k`` as an int, or ConfigError unless ``spec``'s selector can take
    k rows from its design of an n x p dataset, by the selector's own rule.

    This is the one size check of each selector's k, made before any
    design is built, by the selector's row of ``_K_RULES``.
    """
    k = positive_integer(k, "k")
    _K_RULES[spec.name](n, _DESIGNS[spec.design].width(p), k)
    return k


def _run_selector(spec: SelectorSpec, data: DataMatrix, k: int, seed: int,
                  prep: _Preparation | None = None) -> SelectionResult:
    """Run the selector ``spec`` names on ``data``.

    This is the only place a SelectorSpec turns into a selector call,
    and the only place a shared preparation's seconds join a cell's.
    ``prep`` is a preparation of ``data`` for ``spec``'s selector and
    design (else ValueError); without one, the call prepares for its own
    k alone, with the same records, timings aside. k is checked against
    the design's width first (:func:`_servable_k`), so a k the selector
    cannot serve is a ConfigError before any design is built or
    preparation made. The first servable cell of ``prep`` sizes it to
    its own k: levss ranks its design by leverage and iboss sorts the
    tails of every column of its design, each k rows deep, and oss runs
    one greedy to k, which reads the row map of a
    :class:`~subdata.selectors.Resample` ``data``; the greedy is
    prefix-consistent, so every smaller k is its first k rows. A
    preparation too shallow for k is a ConfigError for each of the
    three. A levss, iboss or oss cell's ``elapsed`` is its own seconds
    plus its preparation's ``elapsed``: the ranking's, the tails' or
    the whole greedy's, of which an oss cell's own share is nil. Uniform
    draws follow the seed and share nothing. A negative seed is a
    ConfigError, whether or not the selector draws from it.
    """
    seed = seed_integer(seed)
    prep = prep or _Preparation(data, spec)
    if (prep.spec.name, prep.spec.design) != (spec.name, spec.design):
        raise ValueError(f"a {prep.spec.label} preparation cannot serve {spec.label}")
    k = _servable_k(spec, data.n, data.p, k)
    if spec.name == "levss":
        shared = prep.shared(lambda design: rank_by_leverage(design, k))
        sel = select_levss(shared, LevssConfig(k=k, threshold=spec.threshold, seed=seed))
    elif spec.name == "iboss":
        shared = prep.shared(lambda design: iboss_tails(design, k))
        sel = select_iboss(shared, k)
    elif spec.name == "oss":
        shared = prep.shared(lambda design: select_oss(design, k))
        if k > shared.indices.size:
            raise ConfigError(f"greedy of depth {shared.indices.size} cannot serve k={k}")
        sel = replace(shared, indices=shared.indices[:k].copy(), k_star=k, elapsed=0.0)
    else:
        return select_uniform(data, k, seed)
    return replace(sel, elapsed=sel.elapsed + shared.elapsed)


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
    tails, the OSS greedy), each cell counts its own call plus that
    preparation in full, made for the group's deepest servable k, so
    every oss cell of a dataset reads the whole greedy's seconds.
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


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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
    the intercept adjusted to the full-data means. A cell's logdet is
    that of its fit's design [1, X_sel], read from the singular values
    the fit keeps, so [1, X_sel] is never built. With ``split`` set,
    the first ``split`` slope errors are first-order terms and the rest
    interaction terms. A bootstrap replicate's ``data`` is a
    :class:`~subdata.selectors.Resample`, whose row map only the oss
    greedy reads (see :class:`_Preparation`). Simulation and bootstrap
    share this one path.
    """

    def __init__(self, data: DataMatrix, design: np.ndarray, y: np.ndarray,
                 truth: LinearFit, sigma2: float, split: int | None = None):
        self.data, self.design, self.y = data, design, y
        self.truth, self.sigma2, self.split = truth, sigma2, split
        # column sums by one BLAS matvec: 3-4x faster than design.mean(axis=0)
        self.design_means = (np.ones(design.shape[0]) @ design) / design.shape[0]
        self.y_mean = float(y.mean())

    def score_grid(self, rep: int, specs: tuple[SelectorSpec, ...], k_values,
                   seed: int) -> list[MetricsRecord]:
        """Score every (k, spec) cell; records come k-major, specs in order.

        Cells run grouped by selector and design, each group sharing one
        :class:`_Preparation` that is dropped when the group is done, so
        a levss ranking is never held beside another selector's scratch
        memory. Each member serves its k values deepest first, so the
        group's first servable cell sizes the preparation for the rest.
        """
        groups: dict[tuple[str, str], list[int]] = {}
        for i, spec in enumerate(specs):
            groups.setdefault((spec.name, spec.design), []).append(i)
        deepest_first = sorted(range(len(k_values)), key=k_values.__getitem__, reverse=True)
        scored = {}
        for members in groups.values():
            prep = _Preparation(self.data, specs[members[0]])
            for i in members:
                for j in deepest_first:
                    scored[i, j] = self.score(rep, specs[i], k_values[j], seed, prep)
        return [scored[i, j] for j in range(len(k_values)) for i in range(len(specs))]

    def score(self, rep: int, spec: SelectorSpec, k: int, seed: int,
              prep: _Preparation) -> MetricsRecord:
        """Select, fit and score one cell; a failure yields a flagged record."""
        try:
            sel = _run_selector(spec, self.data, k, seed, prep)
            t0 = time.perf_counter()
            fit = fit_ols(np.take(self.design, sel.indices, axis=0), self.y[sel.indices])
            fit = adjusted_intercept(fit, self.design_means, self.y_mean)
            t_fit = time.perf_counter() - t0
            ld = logdet_from_singular_values(fit.singular_values, self.sigma2)
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
                stacklevel=4,  # the caller of run_simulation or run_bootstrap
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


def _pinned(unit, i: int) -> list[MetricsRecord]:
    """``unit(i)`` with every OpenBLAS library pinned to STUDY_BLAS_THREADS."""
    with blas_threads(STUDY_BLAS_THREADS):
        return unit(i)


def _run_units(unit, count: int, what: str) -> list[MetricsRecord]:
    """The records of ``unit(0)``, ..., ``unit(count - 1)``, in order.

    Units run serially or on min(SUBDATA_THREADS, count, usable CPUs) workers,
    each worker taking one contiguous chunk of units, so ``unit`` (and
    the dataset it carries) is pickled once per worker. Each worker runs
    its units with OpenBLAS pinned to STUDY_BLAS_THREADS; the serial loop
    relies on its caller's pin, which the two studies hold around this
    call. Each failed record warns once, naming its ``what``.
    """
    workers = min(resolve_workers(), count, usable_cpus())
    if workers == 1:
        per_unit = [unit(i) for i in range(count)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_unit = list(pool.map(partial(_pinned, unit), range(count),
                                     chunksize=-(-count // workers)))
    records = [rec for chunk in per_unit for rec in chunk]
    _warn_failures(records, what)
    return records


def run_simulation(config: ScenarioConfig, selectors, reps: int) -> list[MetricsRecord]:
    """Generate, select, fit, and score ``reps`` independent repetitions.

    Repetition r draws its dataset from seed ``config.seed + r``, runs
    every selector on it, fits OLS with the adjusted intercept on each
    subdata, and records squared estimation errors, the subdata
    information log-determinant, and wall-clock timings. A selector
    failure yields a flagged record (and a warning), never a silent
    drop, so record counts are always reps x selectors.

    Repetitions run on the SUBDATA_THREADS pool of :func:`_run_units`
    and give the records of a serial run, timings aside, because each
    repetition is a pure function of its own seed. Every repetition,
    serial or pooled, runs with each loaded OpenBLAS library pinned to
    STUDY_BLAS_THREADS; the caller's counts come back on return, also
    after an error.
    """
    reps = positive_integer(reps, "reps")
    specs = _coerce_specs(selectors)
    with blas_threads(STUDY_BLAS_THREADS):
        return _run_units(partial(_simulate_rep, config, specs), reps, "repetition")


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

    Each n may appear once, and every n is checked against p and k,
    by the scenario's rule and by each selector's (:func:`_servable_k`),
    before any is timed. For each n, one warm-up repetition is run
    and discarded, then ``reps`` timed repetitions follow, each on a
    freshly seeded dataset shared by all selectors. Only the selection
    call is timed (the selector measures itself), and every call takes
    the one selection path with a preparation for its one k, so each
    time is one selector's whole cost; generation and fitting stay
    outside. Runs are strictly serial so timings are not polluted by
    sibling workers. Reported statistics are the mean and the median
    over repetitions.

    The grid runs with every loaded OpenBLAS library pinned to
    STUDY_BLAS_THREADS threads (``linalg.blas_threads``), so the times
    measure the selectors' work rather than a BLAS thread pool's
    scheduling, which dominates small-n calls on a busy host. Where no
    OpenBLAS library is found, a warning says so.
    """
    reps = positive_integer(reps, "reps")
    n_values = [positive_integer(n, "n") for n in _items(n_values, "n_values")]
    if not n_values:
        raise ConfigError("n_values must not be empty")
    if len(set(n_values)) < len(n_values):
        raise ConfigError(f"each n may appear once, got {n_values}")
    specs = _coerce_specs(selectors)
    for n in n_values:  # check the whole grid before timing any of it
        ScenarioConfig(case=case, n=n, p=p, k=k, seed=base_seed)
        for spec in specs:
            _servable_k(spec, n, p, k)
    out = []
    with blas_threads(STUDY_BLAS_THREADS) as pinned:
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
    return _coerce_specs(("levss:T=25", "levss:T=20", "levss:T=15", "levss",
                          "iboss", "oss"))


@dataclass(frozen=True)
class BootstrapPlan:
    """Bootstrap study layout: replicate count, k grid, selector set, seed.

    Each k may appear once, so every (k, selector) cell has one record
    per replicate; the seed is a whole number >= 0.
    """

    k_values: tuple[int, ...]
    n_boot: int = 100
    selectors: tuple[SelectorSpec, ...] = field(
        default_factory=default_bootstrap_selectors
    )
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_boot", positive_integer(self.n_boot, "n_boot"))
        ks = tuple(positive_integer(k, "k") for k in _items(self.k_values, "k_values"))
        if not ks:
            raise ConfigError("k_values must not be empty")
        if len(set(ks)) < len(ks):
            raise ConfigError(f"each k may appear once, got {list(ks)}")
        object.__setattr__(self, "k_values", ks)
        object.__setattr__(self, "seed", seed_integer(self.seed))
        object.__setattr__(self, "selectors", _coerce_specs(self.selectors))

    @classmethod
    def from_multiples(cls, p: int, multiples=(5, 10, 20, 30), **kwargs) -> "BootstrapPlan":
        """k grid as multiples of the covariate count, default 5p..30p."""
        return cls(k_values=tuple(m * p for m in _items(multiples, "multiples")),
                   **kwargs)


def run_bootstrap(data: DataMatrix, plan: BootstrapPlan) -> list[MetricsRecord]:
    """Selector accuracy under resampling, scored against the full fit.

    The full-data OLS estimate on ``data`` serves as the reference
    truth. Each replicate resamples n rows with replacement (seeded by
    ``plan.seed + b``) into one :class:`~subdata.selectors.Resample`,
    the copied rows that keep their row map, then every (k, selector)
    cell selects from it, fits, and records squared deviations of its
    adjusted-intercept estimate from the reference. Log-determinants
    use sigma2 = 1 since the error variance is unknown here.

    Within a replicate every levss cell of one design shares one
    factorization and ranking, every iboss cell of one design one set
    of sorted column tails, and every oss cell the first rows of one
    greedy run, which reads the row map and scales and groups only the
    replicate's distinct rows; each is made for the deepest k its cells
    can serve. The records equal those of cells run one by one on a
    plain copy of the replicate's rows, and each cell's
    ``elapsed_select`` counts the shared work in full (see
    :func:`_run_selector`). Replicates run on the simulation pool
    (:func:`_run_units`).
    The reference fit and every replicate, serial or pooled, run with
    each loaded OpenBLAS library pinned to STUDY_BLAS_THREADS; the
    caller's counts come back on return, also after an error.
    """
    if data.response is None:
        raise ConfigError("bootstrap needs a dataset with a response column")
    for k in plan.k_values:
        if not (data.p < k <= data.n):
            raise ConfigError(f"bootstrap k values must satisfy p < k <= n, got k={k}")
    with blas_threads(STUDY_BLAS_THREADS):
        reference = fit_ols(data, data.response)
        return _run_units(partial(_bootstrap_rep, data, plan, reference),
                          plan.n_boot, "bootstrap replicate")


def _bootstrap_rep(data: DataMatrix, plan: BootstrapPlan, reference: LinearFit,
                   b: int) -> list[MetricsRecord]:
    rows = np.random.default_rng(plan.seed + b).integers(0, data.n, size=data.n)
    rep = Resample(data, rows)
    scorer = _CellScorer(rep, rep.values, rep.response, reference, 1.0)
    return scorer.score_grid(b, plan.selectors, plan.k_values, plan.seed + b)


def _dist_stats(values: np.ndarray) -> dict:
    return {
        "mean": float(values.mean()),
        "q25": float(np.percentile(values, 25)),
        "median": float(np.percentile(values, 50)),
        "q75": float(np.percentile(values, 75)),
    }


# the MetricsRecord fields whose group mean a summary reports as <field>_mean,
# each left out where it is None (mse_main and mse_interaction outside
# interaction scenarios)
_MEAN_FIELDS = ("mse_intercept", "mse_main", "mse_interaction", "logdet", "k_star",
                "elapsed_select", "elapsed_fit")


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
            for name in _MEAN_FIELDS:
                if getattr(ok[0], name) is not None:
                    cell[f"{name}_mean"] = float(np.mean([getattr(r, name) for r in ok]))
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
