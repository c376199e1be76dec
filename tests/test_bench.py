"""Benchmark harness: simulation loop, timing loop, bootstrap loop."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from subdata import (
    BootstrapPlan,
    ConfigError,
    DataMatrix,
    MetricsRecord,
    Resample,
    ScenarioConfig,
    SelectorSpec,
    SubdataError,
    bench,
    default_bootstrap_selectors,
    expand_interactions,
    fit_ols,
    gen_dataset,
    read_csv,
    resolve_workers,
    run_bootstrap,
    run_simulation,
    run_timing,
    select_iboss,
    summarize,
    with_intercept,
    write_dataset,
)
from subdata import io as subdata_io
from subdata import linalg, selectors
from subdata.bench import THREADS_ENV_VAR, _run_selector

from _oracles import hat_diagonal


def _blas_counts() -> list[int]:
    return [get() for _set, get in linalg._openblas_libraries()]


needs_openblas = pytest.mark.skipif(not _blas_counts(),
                                    reason="no OpenBLAS library loaded")


def _strip_elapsed(rec: MetricsRecord) -> tuple:
    d = dataclasses.asdict(rec)
    d.pop("elapsed_select")
    d.pop("elapsed_fit")
    return tuple(d.items())


# (mse_intercept, mse_slopes, logdet) of the levss, iboss and oss cells of
# TestRunBootstrap.test_default_plan_replicate_is_pinned, by k
_REPLICATE_FLOATS = {
    50: ((0.0009875156485076237, 2.8190086567519397, 46.63769024124093),
         (0.0009919112117833012, 8.244920865648874, 43.48122477515547),
         (0.0014198540478098593, 2.5978948914836506, 39.62992885669802)),
    100: ((0.0007853530607291097, 1.0795468472991305, 55.209403735789394),
          (0.00048240620819667355, 1.3512211616571594, 51.44314372114191),
          (0.0003045010076955698, 1.3104033231410952, 48.79968799742965)),
    200: ((0.001826482813150389, 1.167497956349097, 62.62692960825),
          (0.0004778859756049343, 0.6276009535022931, 59.04187487587808),
          (0.0007777029119841838, 0.4679747750255288, 57.80744717688686)),
    300: ((0.001886209983188398, 1.0850657859001258, 66.76651863225898),
          (0.0005784397957735549, 0.2930478840415046, 63.424967350812096),
          (0.0006225793611476303, 0.44314084765426787, 62.5162726294315)),
}

# the function each study runs once per unit, as bench names it
_STUDY_UNIT = {"simulate": "_simulate_rep", "bootstrap": "_bootstrap_rep"}


def _per_study(cases: dict) -> list:
    """Each case once per study, simulate first.

    The simulate rows keep the ids they had before the bootstrap rows
    joined them.
    """
    return [pytest.param(study, *case, id=prefix + case_id)
            for study, prefix in (("simulate", ""), ("bootstrap", "bootstrap-"))
            for case_id, case in cases.items()]


def _run_three_units(study: str, selector: str, k: int = 20) -> list[MetricsRecord]:
    """Three repetitions or replicates of ``study`` on 200 x 2 uniform data."""
    cfg = ScenarioConfig(case="uniform01", n=200, p=2, k=k, seed=1)
    if study == "simulate":
        return run_simulation(cfg, (selector,), reps=3)
    plan = BootstrapPlan(k_values=(k,), n_boot=3, selectors=(selector,))
    return run_bootstrap(gen_dataset(cfg), plan)


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace the process pool by one that runs its calls in process.

    Returns a log of each pool's worker count ("workers") and each
    ``map`` call's chunk size ("chunksizes"). Every mapped call runs
    with each OpenBLAS library at two threads, as in a worker that
    starts at its library's default, so a unit sees a pin only if its
    worker takes one itself.
    """
    log = {"workers": [], "chunksizes": []}

    class InProcessPool:
        def __init__(self, max_workers):
            log["workers"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            log["chunksizes"].append(chunksize)
            with linalg.blas_threads(2):
                return [fn(*args) for args in zip(*iterables)]

    monkeypatch.setattr(bench, "ProcessPoolExecutor", InProcessPool)
    return log


class TestSelectorSpec:
    def test_labels(self):
        assert SelectorSpec("levss").label == "levss"
        assert SelectorSpec("levss", threshold=25.0).label == "levss:T=25"
        assert SelectorSpec("levss", threshold=np.inf).label == "levss:T=inf"
        assert SelectorSpec("iboss").label == "iboss"
        assert SelectorSpec("iboss", design="expanded").label == "iboss:design=expanded"
        assert SelectorSpec("uniform").label == "uniform"
        assert (SelectorSpec("levss", design="intercept").label
                == "levss:design=intercept")
        assert (SelectorSpec("levss", threshold=25.0, design="intercept").label
                == "levss:T=25:design=intercept")
        assert (SelectorSpec("levss", threshold=np.inf, design="intercept").label
                == "levss:T=inf:design=intercept")

    def test_validation(self):
        with pytest.raises(ConfigError):
            SelectorSpec("lev")
        with pytest.raises(ConfigError):
            SelectorSpec("oss", threshold=10.0)
        with pytest.raises(ConfigError):
            SelectorSpec("levss", design="quadratic")

    # every spec this suite and tests/test_cli.py build, plus exact-label edges
    @pytest.mark.parametrize("spec", [
        SelectorSpec(name) for name in ("levss", "iboss", "oss", "uniform")
    ] + [
        SelectorSpec("levss", threshold=t)
        for t in (1.5, 3.0, 10.0, 15.0, 20.0, 25.0, np.inf,
                  25.123456789, 25.12349, 1 + 1e-7, 1e7)
    ] + [
        SelectorSpec("levss", design="intercept"),
        SelectorSpec("levss", threshold=3.0, design="intercept"),
        SelectorSpec("levss", threshold=25.0, design="intercept"),
        SelectorSpec("levss", threshold=np.inf, design="intercept"),
        SelectorSpec("iboss", design="expanded"),
    ], ids=lambda spec: spec.label)
    def test_parse_inverts_label(self, spec):
        assert SelectorSpec.parse(spec.label) == spec

    def test_labels_tell_close_thresholds_apart(self):
        a = SelectorSpec("levss", threshold=25.123456789)
        b = SelectorSpec("levss", threshold=25.12349)
        assert a.label == "levss:T=25.123456789"
        assert b.label == "levss:T=25.12349"
        cfg = ScenarioConfig(case="mvnormal", n=400, p=3, k=30, seed=2)
        summary = summarize(run_simulation(cfg, (a, b), reps=2))
        assert [(g["selector"], g["count"]) for g in summary["groups"]] == [
            (a.label, 2), (b.label, 2)]

    @pytest.mark.parametrize("label, spec", [
        ("levss:design=intercept:T=10", SelectorSpec("levss", 10.0, "intercept")),
        ("levss:T=10:design=intercept", SelectorSpec("levss", 10.0, "intercept")),
        ("iboss:design=main", SelectorSpec("iboss")),
        ("levss:T=1e+07", SelectorSpec("levss", 1e7)),
    ])
    def test_parse_accepts_any_option_order(self, label, spec):
        assert SelectorSpec.parse(label) == spec

    @pytest.mark.parametrize("label, match", [
        ("levss:T=", "could not convert"),
        ("levss:T=high", "could not convert"),
        ("levss:T=-inf", "threshold must be >= 1"),
        ("levss:T=1e-7", "threshold must be >= 1"),
        ("levss:T=1_0", "plain numeral"),
        ("levss:T= 25 ", "plain numeral"),
        ("levss:X=1", "malformed"),
        ("levss:T=3:T=4", "malformed"),
        ("levss::T=3", "malformed"),
        ("levss:T", "malformed"),
        ("levss:design=expanded", "only applies to the iboss selector"),
        ("iboss:T=30", "threshold only applies to the levss selector"),
        ("oss:design=expanded", "only applies to the iboss selector"),
        ("lev", "unknown selector"),
    ])
    def test_parse_rejects_and_names_the_label(self, label, match):
        with pytest.raises(ConfigError, match=match) as exc:
            SelectorSpec.parse(label)
        assert repr(label) in str(exc.value)

    @pytest.mark.parametrize("selectors", [
        ("levss", "levss"),
        ("levss", SelectorSpec("levss")),
        ("iboss", "iboss:design=main"),
        (SelectorSpec("levss", 25.0), "levss:T=25.0"),
    ])
    def test_repeated_label_rejected(self, selectors):
        cfg = ScenarioConfig(case="mvnormal", n=200, p=2, k=20, seed=1)
        with pytest.raises(ConfigError, match="may appear once"):
            run_simulation(cfg, selectors, reps=2)
        with pytest.raises(ConfigError, match="may appear once"):
            BootstrapPlan(k_values=(20,), selectors=selectors)

    @pytest.mark.parametrize("selectors, match", [
        ("levss", "sequence of selector labels or specs, got 'levss'$"),
        (("levss", 3), "label or a SelectorSpec, got 3$"),
        ((SelectorSpec("oss"), None), "label or a SelectorSpec, got None$"),
        (None, "sequence of selector labels or specs, got None$"),
        (5, "sequence of selector labels or specs, got 5$"),
    ])
    def test_non_label_rejected(self, selectors, match):
        cfg = ScenarioConfig(case="mvnormal", n=200, p=2, k=20, seed=1)
        with pytest.raises(ConfigError, match=match):
            run_simulation(cfg, selectors, reps=1)
        with pytest.raises(ConfigError, match=match):
            run_timing([200], p=2, k=20, selectors=selectors, reps=1)
        with pytest.raises(ConfigError, match=match):
            BootstrapPlan(k_values=(20,), selectors=selectors)

    @pytest.mark.parametrize("threshold", [0.5, 0.0, -1.0, float("nan"), -np.inf])
    def test_threshold_below_one_rejected(self, threshold):
        with pytest.raises(ConfigError, match="threshold must be >= 1"):
            SelectorSpec("levss", threshold=threshold)

    @pytest.mark.parametrize("name", ["iboss", "oss", "uniform"])
    def test_intercept_design_is_levss_only(self, name):
        with pytest.raises(ConfigError, match="levss"):
            SelectorSpec(name, design="intercept")

    def test_expanded_design_is_iboss_only(self):
        with pytest.raises(ConfigError, match="iboss"):
            SelectorSpec("levss", design="expanded")

    def test_intercept_design_ranks_by_leverage_of_one_and_x(self):
        x = np.random.default_rng(11).uniform(size=(300, 4))
        dm = DataMatrix(x)
        k = 25
        plain = _run_selector(SelectorSpec("levss"), dm, k, seed=0)
        variant = _run_selector(
            SelectorSpec("levss", design="intercept"), dm, k, seed=0
        )
        h_x = hat_diagonal(x)
        h_1x = hat_diagonal(with_intercept(x))
        assert np.unique(h_x).size == x.shape[0]
        assert np.unique(h_1x).size == x.shape[0]
        assert np.array_equal(plain.indices, np.argsort(-h_x, kind="stable")[:k])
        assert np.array_equal(variant.indices, np.argsort(-h_1x, kind="stable")[:k])
        assert not np.array_equal(np.sort(plain.indices), np.sort(variant.indices))


class TestRunSelectorChecksK:
    """k is checked against the design's shape before any preparation."""

    @pytest.mark.parametrize("spec, shape, k, match", [
        (SelectorSpec("levss"), (3, 5), 2, "needs k > p, got k=2, p=5"),
        (SelectorSpec("levss"), (3, 5), 8, "needs n > k, got n=3, k=8"),
        (SelectorSpec("levss"), (40, 3), 40, "needs n > k, got n=40, k=40"),
        (SelectorSpec("levss", design="intercept"), (30, 5), 6,
         "needs k > p, got k=6, p=6"),
        (SelectorSpec("iboss"), (30, 5), 8, "needs k >= 2p .* got k=8, p=5"),
        (SelectorSpec("iboss", design="expanded"), (30, 3), 10,
         "needs k >= 2p .* got k=10, p=6"),
        (SelectorSpec("iboss"), (30, 2), 31, "cannot select k=31 rows from n=30"),
        (SelectorSpec("oss"), (30, 2), 1, "needs k >= 2, got k=1"),
        (SelectorSpec("oss"), (30, 2), 30, "needs n > k, got n=30, k=30"),
    ])
    def test_infeasible_k_is_a_config_error(self, monkeypatch, spec, shape, k, match):
        def unreachable(*args):
            raise AssertionError("a preparation was made for an infeasible k")

        monkeypatch.setattr(selectors, "thin_svd", unreachable)
        monkeypatch.setattr(bench, "iboss_tails", unreachable)
        monkeypatch.setattr(bench, "select_oss", unreachable)
        monkeypatch.setattr(bench, "with_intercept", unreachable)
        monkeypatch.setattr(bench, "expand_interactions", unreachable)
        data = DataMatrix(np.random.default_rng(0).normal(size=shape))
        with pytest.raises(ConfigError, match=match):
            _run_selector(spec, data, k, seed=0)


class TestResolveWorkers:
    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert resolve_workers() == 3

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        assert resolve_workers() == 1

    def test_bad_values_rejected(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "zero")
        with pytest.raises(ConfigError):
            resolve_workers()

    @pytest.mark.parametrize("study, cpus, pools", _per_study(
        {"2-pools0": (2, [2]), "None-pools1": (None, [])}))
    def test_pool_never_exceeds_cpu_count(self, monkeypatch, in_process_pool,
                                          study, cpus, pools):
        # the count usable_cpus falls back to without an affinity mask
        monkeypatch.setenv(THREADS_ENV_VAR, "100000")
        monkeypatch.delattr(bench.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
        recs = _run_three_units(study, "uniform")
        assert in_process_pool["workers"] == pools
        assert [r.repetition for r in recs] == [0, 1, 2]

    def test_one_usable_cpu_gives_a_serial_pool_and_no_fork(
            self, monkeypatch, in_process_pool, tmp_path):
        # four CPUs in the machine, one in this process's affinity mask
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {2},
                            raising=False)
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        assert bench.usable_cpus() == 1
        _run_three_units("simulate", "uniform")
        assert in_process_pool["workers"] == []
        forks = []

        def no_fork():
            forks.append(1)
            raise OSError("a fork was tried")

        monkeypatch.setattr(subdata_io, "_SPLIT_MIN_ROWS", 2)
        monkeypatch.setattr(bench.os, "fork", no_fork)
        data = gen_dataset(ScenarioConfig(case="uniform01", n=40, p=2, k=10, seed=1))
        d = read_csv(write_dataset(data, tmp_path / "d.csv"), response="y")
        assert forks == [] and d.values.tobytes() == data.values.tobytes()

    @pytest.mark.parametrize("workers, count, chunksize", [
        (2, 3, 2), (2, 4, 2), (3, 7, 3), (4, 4, 1)])
    def test_each_worker_takes_one_chunk(self, monkeypatch, in_process_pool,
                                         workers, count, chunksize):
        # one chunk per worker pickles the unit, and the dataset it
        # carries, once per worker
        monkeypatch.setenv(THREADS_ENV_VAR, str(workers))
        monkeypatch.setattr(bench, "usable_cpus", lambda: 8)
        cfg = ScenarioConfig(case="uniform01", n=200, p=2, k=20, seed=1)
        recs = run_simulation(cfg, ("uniform",), reps=count)
        assert in_process_pool == {"workers": [workers], "chunksizes": [chunksize]}
        assert [r.repetition for r in recs] == list(range(count))

    @needs_openblas
    @pytest.mark.parametrize("study, cpus, workers, start", _per_study(
        {"4-1-2": (4, 1, 2), "2-2-1": (2, 2, 1), "3-2-1": (3, 2, 1)}))
    def test_pool_workers_share_the_cpus_among_blas_threads(
            self, monkeypatch, in_process_pool, study, cpus, workers, start):
        # every unit runs on STUDY_BLAS_THREADS, serially (workers = 1,
        # the caller at ``start`` threads) or pooled (each fake worker
        # starts at two threads)
        seen = []

        def recording(*args):
            seen.append(_blas_counts())
            return real(*args)

        real = getattr(bench, _STUDY_UNIT[study])
        monkeypatch.setattr(bench, _STUDY_UNIT[study], recording)
        monkeypatch.setenv(THREADS_ENV_VAR, str(workers))
        monkeypatch.setattr(bench, "usable_cpus", lambda: cpus)
        with linalg.blas_threads(start):
            _run_three_units(study, "levss")
            assert _blas_counts() == [start] * len(_blas_counts())
        assert in_process_pool["workers"] == ([workers] if workers > 1 else [])
        assert all(w * bench.STUDY_BLAS_THREADS <= cpus
                   for w in in_process_pool["workers"])
        assert seen == [[bench.STUDY_BLAS_THREADS] * len(_blas_counts())] * 3


class TestStudyBlasPin:
    """The pin both studies hold in the calling process."""

    # the tests below start from two threads per library, so a pin to
    # STUDY_BLAS_THREADS = 1 and its undoing are both visible

    @needs_openblas
    def test_reference_fit_runs_pinned(self, monkeypatch):
        seen = []

        def recording(*args):
            seen.append(_blas_counts())
            return fit_ols(*args)

        monkeypatch.setattr(bench, "fit_ols", recording)
        with linalg.blas_threads(2):
            _run_three_units("bootstrap", "uniform")
        assert len(seen) == 1 + 3  # the reference, then one cell per replicate
        assert seen == [[bench.STUDY_BLAS_THREADS] * len(_blas_counts())] * 4

    @needs_openblas
    @pytest.mark.parametrize("study", list(_STUDY_UNIT))
    def test_counts_restored_after_return(self, study):
        with linalg.blas_threads(2):
            _run_three_units(study, "uniform")
            assert _blas_counts() == [2] * len(_blas_counts())

    @needs_openblas
    @pytest.mark.parametrize("study", list(_STUDY_UNIT))
    def test_counts_restored_after_error(self, monkeypatch, study):
        def failing(*args):
            raise RuntimeError("unit failed")

        monkeypatch.setattr(bench, _STUDY_UNIT[study], failing)
        with linalg.blas_threads(2):
            with pytest.raises(RuntimeError, match="unit failed"):
                _run_three_units(study, "uniform")
            assert _blas_counts() == [2] * len(_blas_counts())


class TestFailureWarnings:
    @pytest.mark.parametrize("study", list(_STUDY_UNIT))
    def test_point_at_the_caller(self, study):
        # k = n fails the leverage selector's n > k check in every unit
        with pytest.warns(UserWarning, match="levss failed") as caught:
            recs = _run_three_units(study, "levss", k=200)
        assert [r.failed for r in recs] == [True] * 3
        assert [w.filename for w in caught] == [__file__] * 3


class TestPreparation:
    def test_serves_only_the_group_it_was_made_for(self):
        data = DataMatrix(np.random.default_rng(3).uniform(size=(300, 3)))
        spec = SelectorSpec("levss", threshold=3.0, design="intercept")
        prep = bench._Preparation(data, SelectorSpec("levss", design="intercept"))
        got = _run_selector(spec, data, 40, 0, prep)
        want = _run_selector(spec, data, 40, 0)
        assert np.array_equal(got.indices, want.indices)
        assert prep.shared(lambda design: pytest.fail("prepared twice")).head.size == 40
        with pytest.raises(ValueError, match="cannot serve levss$"):
            _run_selector(SelectorSpec("levss"), data, 20, 0, prep)

    @pytest.mark.parametrize("name", ["levss", "iboss", "oss"])
    def test_too_shallow_for_k_is_a_config_error(self, name):
        # a preparation made for k = 20, its first cell's, serves no k above it
        data = DataMatrix(np.random.default_rng(4).normal(size=(200, 2)))
        prep = bench._Preparation(data, SelectorSpec(name))
        assert _run_selector(SelectorSpec(name), data, 20, 0, prep).indices.size == 20
        with pytest.raises(ConfigError, match="of depth 20 cannot serve k=40$"):
            _run_selector(SelectorSpec(name), data, 40, 0, prep)


class TestCellLogdet:
    """A cell's logdet comes from its fit's singular values and equals
    logdet_info of [1, X_sel] on every path the fit can take."""

    @pytest.mark.parametrize("path", ["gram", "guard-refused", "short"])
    def test_matches_logdet_info(self, path):
        rng = np.random.default_rng(21)
        n, p, k = 400, 3, 7 if path == "short" else 60  # short: k < 2(p+1)
        x = rng.normal(size=(n, p)) + (1e4 if path == "guard-refused" else 0.0)
        y = x @ np.ones(p) + rng.normal(size=n)
        data, spec, sigma2 = DataMatrix(x, y), SelectorSpec("uniform"), 2.5
        scorer = bench._CellScorer(data, x, y, fit_ols(x, y), sigma2)
        rec = scorer.score(0, spec, k, 7, bench._Preparation(data, spec))
        z = with_intercept(x[_run_selector(spec, data, k, 7).indices])
        cond = np.linalg.cond(z)
        assert (cond > np.sqrt(1e5)) == (path == "guard-refused")
        assert not rec.failed and np.isfinite(rec.logdet)
        want = linalg.logdet_info(z, sigma2)
        assert abs(rec.logdet - want) <= 1e-13 * abs(want)


class TestRunSimulation:
    def test_record_grid_and_determinism(self):
        cfg = ScenarioConfig(case="mvnormal", n=400, p=3, k=40, seed=5)
        sel = ("levss", "uniform")
        a = run_simulation(cfg, sel, reps=3)
        b = run_simulation(cfg, sel, reps=3)
        assert len(a) == 6
        assert [_strip_elapsed(r) for r in a] == [_strip_elapsed(r) for r in b]
        assert {r.selector for r in a} == {"levss", "uniform"}
        assert {r.repetition for r in a} == {0, 1, 2}
        assert all(not r.failed for r in a)
        assert all(np.isfinite(r.logdet) for r in a)

    def test_parallel_matches_serial(self, monkeypatch):
        cfg = ScenarioConfig(case="uniform01", n=300, p=2, k=30, seed=1)
        monkeypatch.setenv(THREADS_ENV_VAR, "1")
        serial = run_simulation(cfg, ("levss",), reps=4)
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        parallel = run_simulation(cfg, ("levss",), reps=4)
        assert [_strip_elapsed(r) for r in serial] == [
            _strip_elapsed(r) for r in parallel
        ]

    def test_full_size_uniform_reproduces_truth_error(self):
        # k = n with the uniform selector fits the whole dataset, so the
        # record must equal the full-data OLS error exactly
        cfg = ScenarioConfig(case="mvnormal", n=120, p=3, k=120, seed=2)
        rec = run_simulation(cfg, ("uniform",), reps=1)[0]
        data = gen_dataset(dataclasses.replace(cfg, seed=cfg.seed + 0))
        fit = fit_ols(data.values, data.response)
        want = float(np.sum((fit.slopes - cfg.beta_slopes) ** 2))
        assert rec.mse_slopes == pytest.approx(want, rel=1e-12)

    def test_failure_is_flagged_and_warned(self):
        # k = n makes the leverage selector's n > k precondition fail
        cfg = ScenarioConfig(case="mvnormal", n=80, p=3, k=80, seed=3)
        with pytest.warns(UserWarning, match="levss"):
            recs = run_simulation(cfg, ("levss", "uniform"), reps=1)
        by_sel = {r.selector: r for r in recs}
        assert by_sel["levss"].failed
        assert by_sel["levss"].error != ""
        assert np.isnan(by_sel["levss"].mse_slopes)
        assert not by_sel["uniform"].failed

    def test_threshold_selector_records_k_star(self):
        cfg = ScenarioConfig(case="mvnormal", n=2000, p=4, k=25, seed=7)
        recs = run_simulation(cfg, (SelectorSpec("levss", threshold=15.0),), reps=2)
        assert all(r.k_star >= r.k for r in recs)
        assert all(r.selector == "levss:T=15" for r in recs)

    def test_interaction_scenario_splits_slope_error(self):
        cfg = ScenarioConfig(
            case="mvnormal", n=600, p=4, k=60, seed=4, interaction=True
        )
        recs = run_simulation(cfg, ("levss", "oss"), reps=2)
        for r in recs:
            assert r.mse_main is not None and r.mse_interaction is not None
            assert r.mse_main + r.mse_interaction == pytest.approx(
                r.mse_slopes, rel=1e-9
            )

    def test_plain_scenario_leaves_split_empty(self):
        cfg = ScenarioConfig(case="uniform01", n=200, p=2, k=20, seed=6)
        recs = run_simulation(cfg, ("iboss",), reps=1)
        assert recs[0].mse_main is None and recs[0].mse_interaction is None

    def test_expanded_design_selector(self):
        cfg = ScenarioConfig(
            case="mvnormal", n=500, p=4, k=30, seed=8, interaction=True
        )
        recs = run_simulation(
            cfg, (SelectorSpec("iboss", design="expanded"),), reps=1
        )
        assert recs[0].selector == "iboss:design=expanded"
        assert not recs[0].failed

    def test_leverage_beats_uniform_on_slopes(self):
        cfg = ScenarioConfig(case="mvnormal", n=3000, p=5, k=100, seed=0)
        recs = run_simulation(cfg, ("levss", "uniform"), reps=40)
        mean = {
            s: np.mean([r.mse_slopes for r in recs if r.selector == s])
            for s in ("levss", "uniform")
        }
        assert mean["levss"] < mean["uniform"]


class TestRunTiming:
    def test_grid_and_fields(self):
        recs = run_timing([200, 400], p=3, k=20, selectors=("levss", "iboss"), reps=2)
        assert len(recs) == 4
        assert {(r.n, r.selector) for r in recs} == {
            (200, "levss"),
            (400, "levss"),
            (200, "iboss"),
            (400, "iboss"),
        }
        for r in recs:
            assert r.reps == 2
            assert r.mean_seconds > 0.0
            assert r.median_seconds > 0.0

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError):
            run_timing([], p=2, k=10, selectors=("levss",))

    def test_child_error_keeps_its_type(self):
        with pytest.raises(ConfigError, match="n >= k"):
            run_timing([10], p=3, k=20, selectors=("levss",), reps=1)

    # the tests below start from two threads per library, so a pin to
    # STUDY_BLAS_THREADS = 1 and its undoing are both visible

    @needs_openblas
    def test_every_timed_call_runs_pinned(self, monkeypatch):
        seen = []

        def recording(*args, **kwargs):
            seen.append(_blas_counts())
            return _run_selector(*args, **kwargs)

        monkeypatch.setattr(bench, "_run_selector", recording)
        with linalg.blas_threads(2):
            run_timing([200, 400], p=3, k=20, selectors=("levss", "iboss"), reps=2)
        pinned = [bench.STUDY_BLAS_THREADS] * len(_blas_counts())
        assert len(seen) == 2 * 3 * 2  # n values x (warm-up + reps) x selectors
        assert all(counts == pinned for counts in seen)

    @needs_openblas
    def test_counts_restored_after_return(self):
        with linalg.blas_threads(2):
            run_timing([200], p=3, k=20, selectors=("levss",), reps=1)
            assert _blas_counts() == [2] * len(_blas_counts())

    @needs_openblas
    def test_counts_restored_after_error(self):
        with linalg.blas_threads(2):
            with pytest.raises(ConfigError, match="n >= k"):
                run_timing([10], p=3, k=20, selectors=("levss",), reps=1)
            assert _blas_counts() == [2] * len(_blas_counts())

    def test_warns_when_no_openblas_found(self, monkeypatch):
        monkeypatch.setattr(linalg, "_openblas_libraries", lambda: [])
        with pytest.warns(UserWarning, match="BLAS thread pool"):
            recs = run_timing([200], p=3, k=20, selectors=("levss",), reps=1)
        assert [r.selector for r in recs] == ["levss"]

    def test_expanded_design_selector(self):
        recs = run_timing([200], p=3, k=20,
                          selectors=(SelectorSpec("iboss", design="expanded"),),
                          reps=1)
        assert [r.selector for r in recs] == ["iboss:design=expanded"]
        assert recs[0].mean_seconds > 0.0


class TestRunBootstrap:
    def test_resampling_perturbs_estimates(self):
        cfg = ScenarioConfig(case="mvnormal", n=150, p=3, k=45, seed=2)
        data = gen_dataset(cfg)
        plan = BootstrapPlan(k_values=(45,), n_boot=3, selectors=("uniform",))
        recs = run_bootstrap(data, plan)
        assert all(r.mse_slopes > 0.0 for r in recs)

    def test_default_plan_replicate_is_pinned(self):
        # every field but the timings of the 24 records of one default-plan
        # replicate of 2e4 x 10 mvnormal data (seed 41). The fits' and the
        # logdet's floats come from BLAS and LAPACK, whose kernels differ by
        # CPU: with OPENBLAS_CORETYPE=Haswell they moved by up to 6.4e-14
        # relative, so they are pinned at a relative 1e-12. Every other
        # field is pinned exactly; no k_star moved with the kernel
        data = gen_dataset(ScenarioConfig(case="mvnormal", n=20_000, p=10, k=50, seed=41))
        recs = run_bootstrap(data, BootstrapPlan.from_multiples(10, n_boot=1, seed=41))
        labels = ("levss:T=25", "levss:T=20", "levss:T=15", "levss", "iboss", "oss")
        exact, floats = [], []
        for rec in recs:
            fields = dict(_strip_elapsed(rec))
            floats.append([fields.pop(name) for name in ("mse_intercept", "mse_slopes", "logdet")])
            exact.append(fields)
        assert exact == [dict(repetition=0, selector=label, k=k, k_star=k, mse_main=None,
                              mse_interaction=None, failed=False, error="")
                         for k in _REPLICATE_FLOATS for label in labels]
        # no levss cell walks, so the four levss labels share their floats
        want = [_REPLICATE_FLOATS[k][max(i - 3, 0)] for k in _REPLICATE_FLOATS
                for i in range(len(labels))]
        np.testing.assert_allclose(floats, want, rtol=1e-12, atol=0.0)

    def test_determinism(self):
        cfg = ScenarioConfig(case="uniform01", n=120, p=2, k=24, seed=3)
        data = gen_dataset(cfg)
        plan = BootstrapPlan(k_values=(24,), n_boot=2, selectors=("levss", "oss"))
        a = run_bootstrap(data, plan)
        b = run_bootstrap(data, plan)
        assert [_strip_elapsed(r) for r in a] == [_strip_elapsed(r) for r in b]

    def test_parallel_matches_serial(self, monkeypatch):
        data = gen_dataset(ScenarioConfig(case="uniform01", n=300, p=2, k=30, seed=1))
        plan = BootstrapPlan(k_values=(30, 60), n_boot=4, selectors=("levss", "oss"))
        monkeypatch.setenv(THREADS_ENV_VAR, "1")
        serial = run_bootstrap(data, plan)
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        parallel = run_bootstrap(data, plan)
        assert len(serial) == 4 * 2 * 2
        assert [_strip_elapsed(r) for r in serial] == [
            _strip_elapsed(r) for r in parallel
        ]

    def test_default_grid_covers_selectors_and_k(self):
        cfg = ScenarioConfig(case="mvnormal", n=400, p=3, k=90, seed=4)
        data = gen_dataset(cfg)
        plan = BootstrapPlan.from_multiples(3, n_boot=1, seed=9)
        assert plan.k_values == (15, 30, 60, 90)
        recs = run_bootstrap(data, plan)
        labels = {r.selector for r in recs}
        assert labels == {
            "levss:T=25",
            "levss:T=20",
            "levss:T=15",
            "levss",
            "iboss",
            "oss",
        }
        assert {r.k for r in recs} == {15, 30, 60, 90}
        assert len(recs) == 4 * 6

    def test_infeasible_cell_is_flagged(self):
        # k = 5 sits below the extreme selector's 2p floor of 6; the
        # uniform cell's 5-row fit on the replicate stays full rank
        cfg = ScenarioConfig(case="mvnormal", n=200, p=3, k=30, seed=5)
        data = gen_dataset(cfg)
        plan = BootstrapPlan(k_values=(5,), n_boot=1, selectors=("iboss", "uniform"))
        with pytest.warns(UserWarning, match="iboss"):
            recs = run_bootstrap(data, plan)
        by_sel = {r.selector: r for r in recs}
        assert by_sel["iboss"].failed
        assert not by_sel["uniform"].failed

    def test_expanded_design_selector(self, monkeypatch):
        data = gen_dataset(ScenarioConfig(case="mvnormal", n=300, p=3, k=20, seed=2))
        seen = []

        def recording_iboss(X, k):
            seen.append(select_iboss(X, k))
            return seen[-1]

        monkeypatch.setattr(bench, "select_iboss", recording_iboss)
        plan = BootstrapPlan(k_values=(20,), n_boot=1, seed=4,
                             selectors=(SelectorSpec("iboss", design="expanded"),))
        recs = run_bootstrap(data, plan)
        assert [r.failed for r in recs] == [False]
        assert recs[0].selector == "iboss:design=expanded"
        rows = np.random.default_rng(4).integers(0, data.n, size=data.n)
        want = select_iboss(expand_interactions(data.values[rows]), 20)
        assert len(seen) == 1
        assert np.array_equal(seen[0].indices, want.indices)

    def test_expanded_design_expands_once_per_replicate(self, monkeypatch):
        calls = []

        def counting(values):
            calls.append(values.shape)
            return expand_interactions(values)

        monkeypatch.setattr(bench, "expand_interactions", counting)
        data = gen_dataset(ScenarioConfig(case="mvnormal", n=400, p=3, k=20, seed=2))
        plan = BootstrapPlan(k_values=(12, 20, 40, 80), n_boot=1, seed=4,
                             selectors=(SelectorSpec("iboss", design="expanded"),))
        recs = run_bootstrap(data, plan)
        assert len(recs) == 4 and not any(r.failed for r in recs)
        assert calls == [(400, 3)]

    def test_every_cell_matches_its_own_selection(self, monkeypatch):
        # T in {1.5, 3} walks hundreds of rows past k (beyond the largest
        # feasible k), k = n fails levss and oss, k = p + 1 fails the
        # intercept design, and k < 2p fails iboss
        data = gen_dataset(ScenarioConfig(case="uniform01", n=2000, p=5, k=6, seed=3))
        specs = tuple(SelectorSpec("levss", threshold=t) for t in (1.5, 3.0, np.inf)) + (
            SelectorSpec("levss"), SelectorSpec("levss", design="intercept"),
            SelectorSpec("levss", threshold=3.0, design="intercept"),
            SelectorSpec("iboss"), SelectorSpec("iboss", design="expanded"),
            SelectorSpec("oss"), SelectorSpec("uniform"))
        plan = BootstrapPlan(k_values=(6, 40, 100, 2000), n_boot=2, selectors=specs, seed=5)
        cells = []

        def recording(spec, rep_data, k, seed, prep):
            try:
                out = _run_selector(spec, rep_data, k, seed, prep)
            except SubdataError as exc:
                cells.append((spec, rep_data, k, seed, exc))
                raise
            cells.append((spec, rep_data, k, seed, out))
            return out

        monkeypatch.setattr(bench, "_run_selector", recording)
        with pytest.warns(UserWarning):
            recs = run_bootstrap(data, plan)
        assert len(cells) == len(recs) == 2 * 4 * len(specs)
        failed, walked = set(), 0
        for spec, rep_data, k, seed, got in cells:
            try:
                want = _run_selector(spec, rep_data, k, seed)
            except SubdataError as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                failed.add((spec.label, k))
                continue
            assert np.array_equal(got.indices, want.indices), (spec.label, k)
            assert got.k_star == want.k_star
            assert np.array_equal(got.condition_trace, want.condition_trace)
            walked = max(walked, got.k_star)
        assert {("levss", 2000), ("oss", 2000), ("levss:design=intercept", 6),
                ("iboss", 6), ("iboss:design=expanded", 6)} <= failed
        assert walked > 100

    def test_prepares_once_per_replicate(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(selectors, "thin_svd", counting("thin_svd", selectors.thin_svd))
        monkeypatch.setattr(bench, "select_oss", counting("oss", bench.select_oss))
        data = gen_dataset(ScenarioConfig(case="mvnormal", n=2000, p=4, k=5, seed=1))
        recs = run_bootstrap(data, BootstrapPlan.from_multiples(4, n_boot=3, seed=2))
        assert len(recs) == 3 * 4 * 6 and not any(r.failed for r in recs)
        assert calls == {"thin_svd": 3, "oss": 3}

    def test_oss_reads_each_replicates_row_map(self, monkeypatch):
        # a plain copy gives oss the same picks, so only a spy sees that
        # the greedy is handed the replicate's row map
        seen = []

        def recording(res):
            seen.append(res)
            return classes(res)

        classes = selectors._resample_classes
        monkeypatch.setenv(THREADS_ENV_VAR, "1")
        monkeypatch.setattr(selectors, "_resample_classes", recording)
        data = gen_dataset(ScenarioConfig(case="mvnormal", n=2000, p=4, k=5, seed=1))
        plan = BootstrapPlan.from_multiples(4, n_boot=2, seed=2)
        recs = run_bootstrap(data, plan)
        assert len(recs) == 2 * 4 * 6 and not any(r.failed for r in recs)
        assert len(seen) == 2
        for b, res in enumerate(seen):
            rows = np.random.default_rng(plan.seed + b).integers(0, data.n, size=data.n)
            assert isinstance(res, Resample) and res.data is data
            assert np.array_equal(res.rows, rows)

    def test_sorts_heads_only_and_prepares_tails_once_per_design(self, monkeypatch):
        tails, heads = Counter(), []

        def counting_tails(matrix, depth):
            tails[getattr(matrix, "values", matrix).shape[1]] += 1
            return selectors.iboss_tails(matrix, depth)

        def recording_head(v, m):
            heads.append((v.size, m))
            return head(v, m)

        head = selectors._argsort_head
        monkeypatch.setattr(bench, "iboss_tails", counting_tails)
        monkeypatch.setattr(selectors, "_argsort_head", recording_head)
        data = gen_dataset(ScenarioConfig(case="mvnormal", n=2000, p=4, k=5, seed=1))
        # oss ranks its sign patterns with _argsort_head too: left out, so
        # that the count below is the levss and iboss call sites'
        specs = tuple(s for s in default_bootstrap_selectors() if s.name != "oss") \
            + (SelectorSpec("iboss", design="expanded"),)
        plan = BootstrapPlan.from_multiples(4, n_boot=2, seed=2, selectors=specs)
        recs = run_bootstrap(data, plan)
        assert len(recs) == 2 * 4 * 6 and not any(r.failed for r in recs)
        assert all(r.k_star == r.k for r in recs)  # no stopping-rule walk
        assert tails == {4: 2, 10: 2}
        # per replicate: two tails per column of each iboss design, one levss head
        assert len(heads) == 2 * (2 * 4 + 2 * 10 + 1)
        assert all(m < size for size, m in heads)

    def test_cells_add_their_preparations_seconds(self, monkeypatch):
        # a ranking, tails or greedy that took 5 s: each cell served from
        # it reads those 5 s plus its own call's
        def five_seconds(fn):
            return lambda *args: dataclasses.replace(fn(*args), elapsed=5.0)

        for name in ("rank_by_leverage", "iboss_tails", "select_oss"):
            monkeypatch.setattr(bench, name, five_seconds(getattr(bench, name)))
        data = gen_dataset(ScenarioConfig(case="mvnormal", n=400, p=3, k=20, seed=2))
        plan = BootstrapPlan(k_values=(12, 30, 60), n_boot=2, seed=3,
                             selectors=("levss:T=20", "levss", "iboss", "oss"))
        recs = run_bootstrap(data, plan)
        assert len(recs) == 2 * 3 * 4 and not any(r.failed for r in recs)
        assert all(5.0 <= r.elapsed_select < 6.0 for r in recs)

    def test_every_oss_cell_of_a_replicate_reads_one_greedy_time(self):
        data = gen_dataset(ScenarioConfig(case="mvnormal", n=2000, p=4, k=5, seed=1))
        plan = BootstrapPlan.from_multiples(4, n_boot=2, seed=2, selectors=("oss",))
        recs = run_bootstrap(data, plan)
        assert len(recs) == 2 * 4 and not any(r.failed for r in recs)
        for b in range(2):
            times = {r.elapsed_select for r in recs if r.repetition == b}
            assert len(times) == 1 and times.pop() > 0.0

    @pytest.mark.parametrize("grid", [(300, 90, 30, 10), (30, 300, 10, 90)],
                             ids=["descending", "shuffled"])
    def test_grid_order_moves_no_record_and_prepares_at_the_deepest_k(
            self, monkeypatch, grid):
        # k = n fails levss and oss, so their groups prepare at k = 90;
        # iboss serves k = n; k = 10 < 2 * 6 fails the expanded design
        depths = Counter()

        def spying(name, fn):
            def wrapped(matrix, depth):
                width = matrix.shape[1] if isinstance(matrix, np.ndarray) else matrix.p
                depths[name, width, depth] += 1
                return fn(matrix, depth)
            return wrapped

        data = gen_dataset(ScenarioConfig(case="uniform01", n=300, p=3, k=10, seed=3))
        specs = ("levss:T=3", "levss", "levss:design=intercept", "iboss",
                 "iboss:design=expanded", "oss", "uniform")

        def records(k_values):
            plan = BootstrapPlan(k_values=k_values, n_boot=2, selectors=specs, seed=6)
            with pytest.warns(UserWarning):
                recs = run_bootstrap(data, plan)
            return {(r.repetition, r.selector, r.k): _strip_elapsed(r) for r in recs}

        want = records(tuple(sorted(grid)))
        for name in ("rank_by_leverage", "iboss_tails", "select_oss"):
            monkeypatch.setattr(bench, name, spying(name, getattr(bench, name)))
        got = records(grid)
        assert got == want
        assert {(sel, k) for (_, sel, k), rec in got.items() if dict(rec)["failed"]} == {
            ("levss:T=3", 300), ("levss", 300), ("levss:design=intercept", 300),
            ("oss", 300), ("iboss:design=expanded", 10)}
        # per replicate, one preparation per (selector, design) group
        assert depths == {("rank_by_leverage", 3, 90): 2, ("rank_by_leverage", 4, 90): 2,
                          ("iboss_tails", 3, 300): 2, ("iboss_tails", 6, 300): 2,
                          ("select_oss", 3, 90): 2}

    def test_requires_response(self):
        cfg = ScenarioConfig(case="mvnormal", n=100, p=2, k=20, seed=6)
        x = gen_dataset(cfg)
        bare = dataclasses.replace(x, response=None)
        plan = BootstrapPlan(k_values=(20,), n_boot=1)
        with pytest.raises(ConfigError):
            run_bootstrap(bare, plan)

    @pytest.mark.parametrize("k", [2, 101], ids=["at-p", "above-n"])
    def test_k_outside_p_to_n_rejected(self, k):
        data = gen_dataset(ScenarioConfig(case="mvnormal", n=100, p=2, k=20, seed=6))
        plan = BootstrapPlan(k_values=(20, k), n_boot=1, selectors=("uniform",))
        with pytest.raises(ConfigError, match=f"p < k <= n, got k={k}"):
            run_bootstrap(data, plan)

    def test_empty_k_grid_rejected(self):
        with pytest.raises(ConfigError, match="k_values must not be empty"):
            BootstrapPlan(k_values=())

    def test_no_selectors_rejected(self):
        with pytest.raises(ConfigError, match="need at least one selector"):
            bench._coerce_specs(())

    def test_default_selectors_order(self):
        labels = [s.label for s in default_bootstrap_selectors()]
        assert labels == [
            "levss:T=25",
            "levss:T=20",
            "levss:T=15",
            "levss",
            "iboss",
            "oss",
        ]


class TestSummarize:
    def test_groups_and_stats(self):
        cfg = ScenarioConfig(case="mvnormal", n=300, p=3, k=30, seed=7)
        recs = run_simulation(cfg, ("levss", "uniform"), reps=4)
        doc = summarize(recs, config_echo={"case": "mvnormal"})
        assert doc["config"] == {"case": "mvnormal"}
        assert doc["records"] == 8
        assert doc["failures"] == 0
        assert "rng" in doc
        groups = {(g["selector"], g["k"]) for g in doc["groups"]}
        assert groups == {("levss", 30), ("uniform", 30)}
        g = doc["groups"][0]
        st = g["mse_slopes"]
        assert st["q25"] <= st["median"] <= st["q75"]
        assert g["count"] == 4
        assert "log10_mse_slopes" in g
        assert "mse_intercept_mean_max_over_min" in doc["diagnostics"]

    def test_failed_records_counted_not_aggregated(self):
        cfg = ScenarioConfig(case="mvnormal", n=60, p=2, k=60, seed=8)
        with pytest.warns(UserWarning):
            recs = run_simulation(cfg, ("levss", "uniform"), reps=2)
        doc = summarize(recs)
        assert doc["failures"] == 2
        by_sel = {g["selector"]: g for g in doc["groups"]}
        assert by_sel["levss"]["count"] == 0
        assert by_sel["levss"]["failures"] == 2
        assert "mse_slopes" not in by_sel["levss"]
        assert by_sel["uniform"]["count"] == 2

    def test_interaction_split_means(self):
        cfg = ScenarioConfig(case="mvnormal", n=300, p=3, k=30, seed=7, interaction=True)
        recs = run_simulation(cfg, ("levss", "uniform"), reps=3)
        for g in summarize(recs)["groups"]:
            ok = [r for r in recs if r.selector == g["selector"] and not r.failed]
            assert g["mse_main_mean"] == float(np.mean([r.mse_main for r in ok]))
            assert g["mse_interaction_mean"] == float(
                np.mean([r.mse_interaction for r in ok]))
        first_order = run_simulation(
            ScenarioConfig(case="mvnormal", n=300, p=3, k=30, seed=7), ("uniform",), reps=1)
        for g in summarize(first_order)["groups"]:
            assert "mse_main_mean" not in g and "mse_interaction_mean" not in g

    def test_empty_records(self):
        doc = summarize([])
        assert doc["records"] == 0
        assert doc["groups"] == []


_SCENARIO = dict(case="uniform01", n=200, p=2, k=20)


@pytest.mark.parametrize("make", [
    lambda: BootstrapPlan(k_values=(20.7,)),
    lambda: BootstrapPlan(k_values=(20,), n_boot=2.5),
    lambda: BootstrapPlan.from_multiples(3, multiples=(2.5,)),
    lambda: run_timing([300.9], p=3, k=20, selectors=("uniform",), reps=1),
    lambda: run_timing([300], p=3, k=20, selectors=("uniform",), reps=np.inf),
    lambda: run_simulation(ScenarioConfig(**_SCENARIO), ("uniform",), reps=2.5),
    lambda: ScenarioConfig(**{**_SCENARIO, "k": np.nan}),
    lambda: ScenarioConfig(**{**_SCENARIO, "n": np.inf}),
], ids=["plan-k", "plan-n-boot", "plan-multiple", "timing-n", "timing-reps",
        "simulation-reps", "scenario-k-nan", "scenario-n-inf"])
def test_non_integer_count_rejected(make):
    with pytest.raises(ConfigError, match="positive integer"):
        make()


@pytest.mark.parametrize("make", [
    lambda: ScenarioConfig(**{**_SCENARIO, "seed": -1}),
    lambda: BootstrapPlan(k_values=(20,), seed=-1),
    lambda: run_timing([300], p=2, k=20, selectors=("uniform",), reps=1, base_seed=-3),
    lambda: _run_selector(SelectorSpec("uniform"),
                          DataMatrix(np.random.default_rng(0).normal(size=(30, 2))),
                          5, seed=-1),
    lambda: ScenarioConfig(**{**_SCENARIO, "seed": 1.5}),
], ids=["scenario", "plan", "timing", "select", "scenario-fraction"])
def test_negative_or_fractional_seed_rejected(make):
    # numpy's generators would raise a bare ValueError mid-run
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        make()


@pytest.mark.parametrize("make, match", [
    (lambda: BootstrapPlan(k_values=(20, 40, 20)), "each k may appear once"),
    (lambda: BootstrapPlan.from_multiples(3, multiples=(5, 5)), "each k may appear once"),
    (lambda: run_timing([300, 300], p=2, k=20, selectors=("uniform",), reps=1),
     "each n may appear once"),
], ids=["plan-k", "plan-multiple", "timing-n"])
def test_repeated_grid_value_rejected(make, match):
    # a repeated value would write its records twice
    with pytest.raises(ConfigError, match=match):
        make()


@pytest.mark.parametrize("make, match", [
    (lambda: run_timing(1000, 3, 20, ["levss"]), "sequence of n_values, got 1000$"),
    (lambda: BootstrapPlan(k_values=50), "sequence of k_values, got 50$"),
    (lambda: BootstrapPlan(k_values=None), "sequence of k_values, got None$"),
    (lambda: BootstrapPlan.from_multiples(3, multiples=5),
     "sequence of multiples, got 5$"),
], ids=["timing-n", "plan-k", "plan-k-none", "plan-multiples"])
def test_grid_that_is_not_a_sequence_rejected(make, match):
    # iterating it would raise a bare TypeError
    with pytest.raises(ConfigError, match=match):
        make()


def test_timing_checks_its_whole_grid_before_timing(monkeypatch):
    calls, run_selector = [], bench._run_selector

    def counted(*args, **kwargs):
        calls.append(args)
        return run_selector(*args, **kwargs)

    monkeypatch.setattr(bench, "_run_selector", counted)
    # the scenario's own rule, then a selector's: levss needs n > k
    for n_values, p, k, names, match in [
        ([2000, 10], 3, 20, ["oss"], "need n >= k, got n=10, k=20"),
        ([2000, 50], 5, 50, ["uniform", "levss"], "needs n > k, got n=50, k=50"),
    ]:
        with pytest.raises(ConfigError, match=match):
            run_timing(n_values, p=p, k=k, selectors=names, reps=1)
        assert calls == []


def test_whole_float_counts_accepted():
    plan = BootstrapPlan(k_values=(20.0, 40), n_boot=2.0)
    assert plan.k_values == (20, 40) and plan.n_boot == 2
    assert BootstrapPlan.from_multiples(4, multiples=(2.5,)).k_values == (10,)
    assert ScenarioConfig(**{**_SCENARIO, "k": 20.0}).k == 20
