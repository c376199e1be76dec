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
    ScenarioConfig,
    SelectorSpec,
    SubdataError,
    bench,
    default_bootstrap_selectors,
    expand_interactions,
    fit_ols,
    gen_dataset,
    resolve_workers,
    run_bootstrap,
    run_simulation,
    run_timing,
    select_iboss,
    summarize,
    with_intercept,
)
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
    ])
    def test_infeasible_k_is_a_config_error(self, monkeypatch, spec, shape, k, match):
        def unreachable(*args):
            raise AssertionError("a preparation was made for an infeasible k")

        monkeypatch.setattr(selectors, "thin_svd", unreachable)
        monkeypatch.setattr(bench, "iboss_tails", unreachable)
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

    @pytest.mark.parametrize("cpus, pools", [(2, [2]), (None, [])])
    def test_pool_never_exceeds_cpu_count(self, monkeypatch, cpus, pools):
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setenv(THREADS_ENV_VAR, "100000")
        monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(bench, "ProcessPoolExecutor", InProcessPool)
        cfg = ScenarioConfig(case="uniform01", n=200, p=2, k=20, seed=1)
        recs = run_simulation(cfg, ("uniform",), reps=3)
        assert started == pools
        assert [r.repetition for r in recs] == [0, 1, 2]


    @needs_openblas
    @pytest.mark.parametrize("cpus, start, threads", [(4, 1, 2), (2, 2, 1), (3, 2, 1)])
    def test_pool_workers_share_the_cpus_among_blas_threads(
            self, monkeypatch, cpus, start, threads):
        # two workers on ``cpus`` CPUs: each runs on cpus // 2 BLAS threads
        seen = []

        def recording(*args):
            seen.append(_blas_counts())
            return real(*args)

        class InProcessPool:
            def __init__(self, max_workers):
                assert max_workers * threads <= cpus

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return list(map(fn, *iterables))

        real = bench._simulate_rep
        monkeypatch.setattr(bench, "_simulate_rep", recording)
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(bench, "ProcessPoolExecutor", InProcessPool)
        cfg = ScenarioConfig(case="uniform01", n=200, p=2, k=20, seed=1)
        with linalg.blas_threads(start):
            run_simulation(cfg, ("levss",), reps=3)
            assert _blas_counts() == [start] * len(_blas_counts())
        assert seen == [[threads] * len(_blas_counts())] * 3


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
    # TIMING_BLAS_THREADS = 1 and its undoing are both visible

    @needs_openblas
    def test_every_timed_call_runs_pinned(self, monkeypatch):
        seen = []

        def recording(*args, **kwargs):
            seen.append(_blas_counts())
            return _run_selector(*args, **kwargs)

        monkeypatch.setattr(bench, "_run_selector", recording)
        with linalg.blas_threads(2):
            run_timing([200, 400], p=3, k=20, selectors=("levss", "iboss"), reps=2)
        pinned = [bench.TIMING_BLAS_THREADS] * len(_blas_counts())
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
    def test_identity_replicates_have_zero_error(self):
        cfg = ScenarioConfig(case="mvnormal", n=90, p=3, k=90, seed=1)
        data = gen_dataset(cfg)
        plan = BootstrapPlan(
            k_values=(90,), n_boot=2, selectors=("uniform",), resample=False
        )
        recs = run_bootstrap(data, plan)
        assert len(recs) == 2
        for r in recs:
            assert r.mse_slopes == 0.0
            assert r.mse_intercept <= 1e-20

    def test_resampling_perturbs_estimates(self):
        cfg = ScenarioConfig(case="mvnormal", n=150, p=3, k=45, seed=2)
        data = gen_dataset(cfg)
        plan = BootstrapPlan(k_values=(45,), n_boot=3, selectors=("uniform",))
        recs = run_bootstrap(data, plan)
        assert all(r.mse_slopes > 0.0 for r in recs)

    def test_determinism(self):
        cfg = ScenarioConfig(case="uniform01", n=120, p=2, k=24, seed=3)
        data = gen_dataset(cfg)
        plan = BootstrapPlan(k_values=(24,), n_boot=2, selectors=("levss", "oss"))
        a = run_bootstrap(data, plan)
        b = run_bootstrap(data, plan)
        assert [_strip_elapsed(r) for r in a] == [_strip_elapsed(r) for r in b]

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
        # k = 5 sits below the extreme selector's 2p floor of 6; identity
        # replicates keep the uniform cell's 5-row fit full rank
        cfg = ScenarioConfig(case="mvnormal", n=200, p=3, k=30, seed=5)
        data = gen_dataset(cfg)
        plan = BootstrapPlan(
            k_values=(5,), n_boot=1, selectors=("iboss", "uniform"),
            resample=False,
        )
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
        specs = default_bootstrap_selectors() + (SelectorSpec("iboss", design="expanded"),)
        plan = BootstrapPlan.from_multiples(4, n_boot=2, seed=2, selectors=specs)
        recs = run_bootstrap(data, plan)
        assert len(recs) == 2 * 4 * 7 and not any(r.failed for r in recs)
        assert all(r.k_star == r.k for r in recs)  # no stopping-rule walk
        assert tails == {4: 2, 10: 2}
        assert heads and all(m < size for size, m in heads)

    def test_requires_response(self):
        cfg = ScenarioConfig(case="mvnormal", n=100, p=2, k=20, seed=6)
        x = gen_dataset(cfg)
        bare = dataclasses.replace(x, response=None)
        plan = BootstrapPlan(k_values=(20,), n_boot=1)
        with pytest.raises(ConfigError):
            run_bootstrap(bare, plan)

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


def test_whole_float_counts_accepted():
    plan = BootstrapPlan(k_values=(20.0, 40), n_boot=2.0)
    assert plan.k_values == (20, 40) and plan.n_boot == 2
    assert BootstrapPlan.from_multiples(4, multiples=(2.5,)).k_values == (10,)
    assert ScenarioConfig(**{**_SCENARIO, "k": 20.0}).k == 20
