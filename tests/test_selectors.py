"""Selector behavior: leverage-ordered, extreme-per-covariate, orthogonal
greedy, and uniform baselines."""

import hashlib
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdata import (
    ConfigError,
    ContractError,
    DataMatrix,
    DimensionError,
    LevssConfig,
    Resample,
    ScalingError,
    ScenarioConfig,
    fit_ols,
    gen_covariates,
    iboss_tails,
    leverage_scores,
    rank_by_leverage,
    select_iboss,
    select_levss,
    select_oss,
    select_uniform,
    thin_svd,
)
from subdata import selectors
from subdata.selectors import (_OSS_BLOCK_ROWS, _argsort_head, _column_extrema,
                               _iboss_quotas, _interchangeable_classes, _oss_rows,
                               _pattern_runs)

from _oracles import (
    hat_diagonal,
    iboss_sequential_trace,
    oss_naive_greedy,
    oss_pair_loss,
    oss_rowwise_greedy,
    oss_scale,
    oss_total_loss,
)


def _case2_like(n, p, seed):
    """Equicorrelated normal covariates, the shape used in most checks."""
    rng = np.random.default_rng(seed)
    cov = 0.5 + 0.5 * np.eye(p)
    return rng.normal(size=(n, p)) @ np.linalg.cholesky(cov).T


class TestLevss:
    def test_axis_points_beat_interior_points(self):
        x = np.array(
            [
                [10.0, 0.0],
                [0.0, 10.0],
                [-10.0, 0.0],
                [0.0, -10.0],
                [1.0, 1.0],
                [-1.0, -1.0],
            ]
        )
        res = select_levss(x, LevssConfig(k=4))
        assert set(res.indices.tolist()) == {0, 1, 2, 3}
        assert res.k_star == 4
        assert res.condition_trace.size == 0

    def test_no_threshold_is_top_k_leverage(self):
        for seed in range(8):
            x = _case2_like(80, 4, seed)
            h = hat_diagonal(x)
            want = np.argsort(-h, kind="stable")[:10]
            res = select_levss(x, LevssConfig(k=10))
            assert np.array_equal(res.indices, want)

    def test_indices_follow_score_order(self):
        x = _case2_like(60, 3, 21)
        res = select_levss(x, LevssConfig(k=12))
        h = leverage_scores(thin_svd(x))
        picked = h[res.indices]
        excluded = np.delete(h, res.indices)
        assert picked.min() >= excluded.max() - 1e-12

    def test_ties_break_by_ascending_row(self):
        # identical rows get bitwise-identical scores; orthogonal columns
        # make the exact values easy: h_i = x_i0^2/9 + x_i1^2/8, so rows
        # 1 and 3 tie at 1/2 and rows 0 and 2 tie at 4/9
        x = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0], [0.0, 2.0], [1.0, 0.0]])
        res = select_levss(x, LevssConfig(k=3))
        assert list(res.indices) == [1, 3, 0]

    def test_threshold_inf_matches_disabled(self):
        x = _case2_like(300, 5, 2)
        plain = select_levss(x, LevssConfig(k=40))
        inf = select_levss(x, LevssConfig(k=40, threshold=np.inf))
        assert inf.k_star == 40
        assert np.array_equal(np.sort(plain.indices), np.sort(inf.indices))

    def test_threshold_extends_acceptance(self):
        x = _case2_like(2000, 5, 3)
        res = select_levss(x, LevssConfig(k=20, threshold=15.0, seed=4))
        assert res.k_star >= 20
        assert res.indices.size == 20
        assert res.condition_trace.size == res.k_star - 20 + 1
        # every trace entry before the last met the continuation rule
        assert np.all(res.condition_trace[:-1] >= 15.0)
        assert res.condition_trace[-1] < 15.0

    def test_k_star_nonincreasing_in_threshold(self):
        for seed in range(6):
            x = _case2_like(1500, 4, 100 + seed)
            ks = [
                select_levss(x, LevssConfig(k=24, threshold=t)).k_star
                for t in (15.0, 20.0, 25.0, np.inf)
            ]
            assert ks[0] >= ks[1] >= ks[2] >= ks[3] == 24

    def test_downselect_is_subset_and_sorted(self):
        x = _case2_like(2500, 4, 8)
        full = select_levss(x, LevssConfig(k=2499))
        res = select_levss(x, LevssConfig(k=30, threshold=15.0, seed=1))
        if res.k_star > 30:
            accepted = set(full.indices[: res.k_star].tolist())
            assert set(res.indices.tolist()) <= accepted
        assert np.all(np.diff(res.indices) > 0) or res.k_star == 30

    def test_downselect_seed_controls_draw(self):
        x = _case2_like(2500, 4, 8)
        a = select_levss(x, LevssConfig(k=30, threshold=15.0, seed=1))
        b = select_levss(x, LevssConfig(k=30, threshold=15.0, seed=1))
        c = select_levss(x, LevssConfig(k=30, threshold=15.0, seed=2))
        assert np.array_equal(a.indices, b.indices)
        assert a.k_star == c.k_star
        if a.k_star > 30:
            assert not np.array_equal(a.indices, c.indices)

    def test_deterministic_without_threshold(self):
        x = _case2_like(400, 6, 12)
        a = select_levss(x, LevssConfig(k=50, seed=0))
        b = select_levss(x, LevssConfig(k=50, seed=99))
        assert np.array_equal(a.indices, b.indices)

    def test_exhausts_data_when_rule_never_breaks(self):
        # condition numbers never drop below 1, so T = 1 accepts every row
        x = _case2_like(40, 3, 44)
        res = select_levss(x, LevssConfig(k=5, threshold=1.0, seed=0))
        assert res.k_star == 40
        assert res.indices.size == 5
        assert res.condition_trace.size == 40 - 5 + 1
        assert res.condition_trace[-1] >= 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            LevssConfig(k=0)
        with pytest.raises(ConfigError):
            LevssConfig(k=5, threshold=0.5)
        x = np.ones((10, 3)) + np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(ConfigError):
            select_levss(x, LevssConfig(k=3))  # k <= p
        with pytest.raises(ConfigError):
            select_levss(x, LevssConfig(k=10))  # k >= n

    @pytest.mark.parametrize("threshold", [None, 1.0, 1e9])
    @pytest.mark.parametrize("seed", [-1, 2.5, "7"])
    def test_bad_seed_is_a_config_error_at_construction(self, threshold, seed):
        # the draw that reads the seed happens only when the stopping rule
        # admits more than k rows; the seed is checked before any matrix
        with pytest.raises(ConfigError, match="seed"):
            LevssConfig(k=10, threshold=threshold, seed=seed)

    def test_seed_is_kept_as_an_int_or_none(self):
        assert LevssConfig(k=10, seed=np.int64(3)).seed == 3
        assert type(LevssConfig(k=10, seed=3.0).seed) is int
        assert LevssConfig(k=10, seed=None).seed is None

    def test_elapsed_recorded(self):
        x = _case2_like(100, 3, 1)
        res = select_levss(x, LevssConfig(k=10))
        assert res.elapsed >= 0.0

    def test_one_ranking_serves_every_cell(self):
        x = np.random.default_rng(5).uniform(size=(600, 3))
        # a ranking that took 5 s: a selection from it times its own call only
        ranking = replace(rank_by_leverage(x, 40), elapsed=5.0)
        assert np.array_equal(ranking.head, np.argsort(-ranking.scores, kind="stable")[:40])
        for k, t in [(10, None), (10, 1.5), (40, 3.0), (40, np.inf)]:
            cfg = LevssConfig(k=k, threshold=t, seed=2)
            shared, alone = select_levss(ranking, cfg), select_levss(x, cfg)
            assert np.array_equal(shared.indices, alone.indices)
            assert shared.k_star == alone.k_star
            assert np.array_equal(shared.condition_trace, alone.condition_trace)
            assert shared.elapsed < ranking.elapsed
        with pytest.raises(ConfigError, match="k > p"):
            select_levss(ranking, LevssConfig(k=3))
        with pytest.raises(ConfigError, match="n > k"):
            select_levss(ranking, LevssConfig(k=600))
        with pytest.raises(ConfigError, match="depth 40 cannot serve k=41"):
            select_levss(ranking, LevssConfig(k=41))
        assert rank_by_leverage(x, 10**6).head.size == 600


class TestArgsortHead:
    """The sampled bound of _argsort_head, on inputs that defeat it."""

    @staticmethod
    def _bounds_tried(monkeypatch, v, m):
        kth = []
        partition = np.partition

        def spy(a, k, *args, **kwargs):
            kth.append(int(k))
            return partition(a, k, *args, **kwargs)

        monkeypatch.setattr(np, "partition", spy)
        got = _argsort_head(v, m)
        monkeypatch.undo()
        assert np.array_equal(got, np.argsort(v, kind="stable")[:m])
        return kth

    def test_one_bound_suffices_on_random_values(self, monkeypatch):
        v = np.random.default_rng(1).normal(size=100_000)
        assert self._bounds_tried(monkeypatch, v, 300) == [20]

    def test_bound_widens_past_a_sample_of_low_values(self, monkeypatch):
        # the first 30 sampled values are the 30 smallest, the rest large:
        # the sample's 21st smallest bounds a block of 21 rows, its 42nd
        # smallest a block of all but the 170 largest
        v = np.random.default_rng(2).normal(size=32 * 200)
        v[:32 * 30:32] = -100.0 - np.arange(30)
        v[32 * 30::32] = 100.0 + np.arange(170)
        assert self._bounds_tried(monkeypatch, v, 300) == [20, 41]

    def test_bound_widens_to_every_row_when_the_sample_is_the_minimum(
            self, monkeypatch):
        # every 32nd value is the minimum, as in the largest-value tail of
        # a column whose every 32nd value is its maximum: no quantile of
        # the sample bounds more than the 200 sampled rows
        col = np.random.default_rng(3).normal(size=32 * 200)
        col[::32] = col.max()
        assert self._bounds_tried(monkeypatch, -col, 300) == [20, 41, 83, 167]

    def test_nan_sorts_last(self):
        v = np.random.default_rng(4).normal(size=5000)
        v[::7] = np.nan
        for m in (1, 300, 4000, 4999):
            assert np.array_equal(_argsort_head(v, m), np.argsort(v, kind="stable")[:m])


class TestIboss:
    def test_single_covariate_tails(self):
        x = np.arange(1.0, 9.0).reshape(-1, 1)
        idx = select_iboss(x, k=4).indices
        assert sorted(x[idx, 0].tolist()) == [1.0, 2.0, 7.0, 8.0]
        assert sorted(idx.tolist()) == [0, 1, 6, 7]

    def test_sequential_exclusion_two_covariates(self):
        xi = np.array(
            [
                [0.0, 0.0],
                [9.0, 8.0],
                [1.0, 7.5],
                [8.5, 0.5],
                [4.0, 4.0],
                [5.0, 3.0],
                [3.0, 5.0],
                [6.0, 6.0],
            ]
        )
        idx = select_iboss(xi, k=4).indices
        # row 1 is the max of covariate 0, so covariate 1's max falls to row 2
        assert sorted(idx.tolist()) == [0, 1, 2, 3]

    def test_matches_literal_oracle(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(40, 3))
            for k in (6, 12, 15, 17):
                got = sorted(select_iboss(x, k).indices.tolist())
                want = sorted(iboss_sequential_trace(x, k))
                assert got == want, f"seed={seed} k={k}"

    def test_ties_follow_value_then_row(self):
        # small integer values tie at almost every tail boundary; the set
        # must be the (value, row) oracle's, not introselect's choice
        for seed in range(6):
            rng = np.random.default_rng(seed)
            x = rng.integers(0, 5, size=(50, 2)).astype(float)
            for k in (4, 8, 11, 16, 25):
                got = sorted(select_iboss(x, k).indices.tolist())
                want = sorted(iboss_sequential_trace(x, k))
                assert got == want, f"seed={seed} k={k}"

    def test_ties_on_duplicate_rows(self):
        # a bootstrap-style resample: every tie comes from repeated rows
        rng = np.random.default_rng(7)
        base = rng.normal(size=(30, 3))
        x = base[rng.integers(0, 30, size=90)]
        for k in (6, 13, 20):
            got = sorted(select_iboss(x, k).indices.tolist())
            assert got == sorted(iboss_sequential_trace(x, k)), f"k={k}"

    @pytest.mark.parametrize("kind", ["resampled", "small integers"])
    def test_one_set_of_tails_serves_every_k(self, kind):
        rng = np.random.default_rng(12)
        if kind == "resampled":  # every tie comes from a repeated row
            x = rng.normal(size=(60, 3))[rng.integers(0, 60, size=240)]
        else:
            x = rng.integers(-2, 3, size=(240, 3)).astype(float)
        # tails that took 5 s: a selection from them times its own call only
        tails = replace(iboss_tails(x, 120), elapsed=5.0)
        for k in range(6, 121):
            shared, alone = select_iboss(tails, k), select_iboss(x, k)
            assert np.array_equal(shared.indices, alone.indices), k
            assert sorted(shared.indices.tolist()) == sorted(iboss_sequential_trace(x, k))
            assert shared.elapsed < tails.elapsed
            # each tail's rows come by value (descending for the max side), then row
            lo, hi = _iboss_quotas(k, 3)
            pos = 0
            for j in range(3):
                for want, sign in ((lo[j], 1.0), (hi[j], -1.0)):
                    tail = shared.indices[pos:pos + want]
                    keys = list(zip(sign * x[tail, j], tail))
                    assert keys == sorted(keys), (k, j, sign)
                    pos += want
        with pytest.raises(ConfigError, match="depth 120"):
            select_iboss(tails, 121)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_tails_are_stable_argsort_heads_of_every_column(self, order):
        # 19 columns: two full groups of columns copied together and a
        # partial one; 9000 rows: two full blocks of rows and a partial
        # one; rounded values, so the heads break many ties by row
        rng = np.random.default_rng(19)
        x = np.round(rng.normal(size=(9000, 19)), 1)
        x[:, 3] = -x[:, 3] * 0.0  # +0.0 and -0.0 throughout
        tails = iboss_tails(np.asarray(x, order=order), 400)
        for j in range(19):
            assert np.array_equal(tails.lo[j], np.argsort(x[:, j], kind="stable")[:400]), j
            assert np.array_equal(tails.hi[j], np.argsort(-x[:, j], kind="stable")[:400]), j

    def test_tails_deeper_than_n_cover_every_row(self):
        x = np.random.default_rng(4).normal(size=(9, 2))
        tails = iboss_tails(x, 50)
        assert tails.depth == 9
        assert np.array_equal(tails.lo[1], np.argsort(x[:, 1], kind="stable"))
        assert np.array_equal(select_iboss(tails, 9).indices, select_iboss(x, 9).indices)

    def test_remainder_spreads_extra_pairs(self):
        x = np.arange(1.0, 9.0).reshape(-1, 1)
        idx = select_iboss(x, k=5).indices
        # one covariate: 2 per tail plus the odd point on the max side
        assert sorted(x[idx, 0].tolist()) == [1.0, 2.0, 6.0, 7.0, 8.0]

    def test_row_permutation_selects_same_values(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(50, 2))
        perm = rng.permutation(50)
        a = np.sort(x[select_iboss(x, 12).indices, 0])
        b = np.sort(x[perm][select_iboss(x[perm], 12).indices, 0])
        assert np.array_equal(a, b)

    def test_distinct_and_in_range(self):
        x = np.random.default_rng(1).normal(size=(33, 4))
        res = select_iboss(x, k=16)
        idx = res.indices
        assert idx.size == 16 == np.unique(idx).size
        assert idx.min() >= 0 and idx.max() < 33
        assert res.k_star == 16
        assert res.condition_trace.size == 0
        assert res.elapsed >= 0.0

    def test_validation(self):
        x = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(ConfigError):
            select_iboss(x, k=5)  # below 2p
        with pytest.raises(ConfigError):
            select_iboss(x, k=21)


class TestOss:
    def test_single_covariate_endpoints(self):
        x = np.array([[-1.0], [-0.9], [0.9], [1.0]])
        idx = select_oss(x, k=2).indices
        assert sorted(idx.tolist()) == [0, 3]

    def test_corner_case_matches_exhaustive(self):
        x = np.array(
            [
                [-1.00, -1.00],
                [1.00, -0.95],
                [-0.95, 1.00],
                [0.90, 0.90],
                [0.10, 0.05],
                [-0.20, 0.10],
                [0.05, -0.15],
                [-0.10, -0.05],
            ]
        )
        z = oss_scale(x)
        best = min(combinations(range(8), 4), key=lambda s: oss_total_loss(z, s))
        assert set(best) == {0, 1, 2, 3}
        idx = select_oss(x, k=4).indices
        assert set(idx.tolist()) == {0, 1, 2, 3}

    def test_matches_naive_greedy(self):
        for n, p, k, seed in [
            (30, 1, 5, 0),
            (30, 3, 5, 1),
            (120, 3, 12, 2),
            (120, 5, 12, 3),
            (200, 5, 12, 4),
            (200, 2, 20, 5),
        ]:
            x = np.random.default_rng(seed).normal(size=(n, p))
            got = select_oss(x, k).indices.tolist()
            want = oss_naive_greedy(x, k)
            assert got == want, f"n={n} p={p} k={k} seed={seed}"

    def test_every_word_width_matches_naive_greedy(self):
        # 2p sign bits fill one to nine byte planes, one and two uint64 words
        for p in (1, 4, 5, 8, 16, 17, 32, 33):
            x = np.random.default_rng(40 + p).normal(size=(60, p))
            got = select_oss(x, 8).indices.tolist()
            assert got == oss_naive_greedy(x, 8), f"p={p}"

    def test_wide_pattern_matches_naive_greedy(self):
        # 140 sign bits: 18 byte planes, three uint64 words per row
        x = np.random.default_rng(70).normal(size=(40, 70))
        assert select_oss(x, 6).indices.tolist() == oss_naive_greedy(x, 6)

    def test_integer_data_matches_naive_greedy(self):
        # values 0..4 with both ends present scale to {-1, -0.5, 0, 0.5, 1}:
        # exact zeros carry no sign, and every loss is exact, so ties are
        # real and must go to the lowest row
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.integers(0, 5, size=(50, 3)).astype(float)
            x[0], x[1] = 0.0, 4.0
            for k in (5, 12):
                got = select_oss(x, k).indices.tolist()
                assert got == oss_naive_greedy(x, k), f"seed={seed} k={k}"

    def test_duplicate_rows_match_naive_greedy(self):
        # a bootstrap-style resample, with and without rounded entries
        rng = np.random.default_rng(11)
        base = rng.normal(size=(25, 4))
        for data in (base, np.round(base)):
            x = data[rng.integers(0, 25, size=70)]
            got = select_oss(x, 10).indices.tolist()
            assert got == oss_naive_greedy(x, 10)

    def test_tie_with_a_class_that_lost_a_row_goes_to_the_lowest_row(self):
        # rows scale to -1, 1, 1, -1: classes {0, 3} and {1, 2}. Rows 0 and
        # 1 come first; then rows 3 and 2 tie at exactly 1, and row 2 must
        # win although the class of row 0 comes first. The same holds with
        # 33 equal columns (66 sign bits, two words per row) and for the
        # rows drawn as a Resample of the first two
        x = np.array([[0.0], [1.0], [1.0], [0.0]])
        for base in (x, np.repeat(x, 33, axis=1)):
            assert oss_naive_greedy(base, 3) == [0, 1, 2]
            for data in (base, Resample(base[:2], [0, 1, 1, 0])):
                assert select_oss(data, 3).indices.tolist() == [0, 1, 2]

    def test_exhausted_classes_match_naive_greedy_up_to_n_minus_1(self):
        # four distinct rows resampled to 14: every class runs out of rows
        # before k = 13, one row short of all of them
        rng = np.random.default_rng(23)
        for base in (rng.normal(size=(4, 2)), np.round(rng.normal(size=(4, 3)))):
            x = base[np.r_[0:4, rng.integers(0, 4, size=10)]]
            for k in range(2, x.shape[0]):
                assert select_oss(x, k).indices.tolist() == oss_naive_greedy(x, k), k

    def test_rows_sharing_norm_and_signs_are_one_class(self):
        # (0.5, 0.25) and (0.25, 0.5) differ, but share |z|^2 and the sign
        # pattern; the corners keep the scaling the identity
        x = np.array([[-1.0, -1.0], [0.5, 0.25], [1.0, 1.0], [0.25, 0.5],
                      [-0.5, 0.25], [0.5, 0.25], [0.25, -0.5], [-0.25, -0.5]])
        norms2, signs = _oss_rows(x)
        assert np.array_equal(norms2, np.einsum("ij,ij->i", x, x))
        members, first = _interchangeable_classes(norms2, signs)
        classes = [members[a:b].tolist() for a, b in zip(first[:-1], first[1:])]
        assert classes == [[0], [1, 3, 5], [2], [4], [6], [7]]
        for k in range(2, 8):
            assert select_oss(x, k).indices.tolist() == oss_naive_greedy(x, k), k

    @pytest.mark.parametrize("p", [1, 3, 10, 33, 70])
    def test_classes_are_rows_sharing_norm_and_sign_words(self, p):
        # entries in {-1, 0, 1}, which the unit box leaves as they are:
        # many rows share |z|^2 but not their signs
        rng = np.random.default_rng(p)
        base = rng.integers(-1, 2, size=(15, p)).astype(float)
        z = np.vstack([-np.ones(p), np.ones(p), base[rng.integers(0, 15, size=50)],
                       rng.uniform(-1.0, 1.0, size=(10, p))])
        norms2, signs = _oss_rows(z)
        members, first = _interchangeable_classes(norms2, signs)
        want: dict = {}
        for i in range(z.shape[0]):
            want.setdefault((norms2[i], signs[i].tobytes()), []).append(i)
        got = [members[a:b].tolist() for a, b in zip(first[:-1], first[1:])]
        assert got == sorted(want.values())  # by lowest row, rows ascending
        if p > 1:  # some |z|^2 is shared by rows with different signs
            assert len({key[0] for key in want}) < len(want)

    def test_duplicates_with_two_words_per_row_match_naive_greedy(self):
        # p = 33: 66 sign bits, two uint64 words per row. Rows 2-5 and 6-9
        # differ only in which of columns 31 and 32 is -1, so they share
        # |z|^2 and the first word, whose last bit is column 30's z < 0
        rng = np.random.default_rng(33)
        base = rng.integers(-1, 2, size=(10, 33)).astype(float)
        base[0], base[1] = -1.0, 1.0
        base[6:] = base[2:6]
        base[2:6, 31:] = [-1.0, 0.0]
        base[6:, 31:] = [0.0, -1.0]
        x = base[np.r_[0:10, rng.integers(0, 10, size=20)]]
        words = _oss_rows(x)[1].view(np.uint64)
        assert np.array_equal(words[2:6, 0], words[6:10, 0])
        for k in (5, 15, 29):
            assert select_oss(x, k).indices.tolist() == oss_naive_greedy(x, k), k

    def test_pattern_runs_put_one_row_patterns_first_in_row_order(self):
        # p = 33: two uint64 words of signs per class. Classes 0, 1, 3 and
        # 5 share their first word, and so do 2 and 6; 0 and 3 share both
        # words. Classes 2 and 6 hold several rows, each alone in its
        # pattern, and are compared one by one, so neither counts among the
        # one-row patterns, which come first in class (lowest-row) order.
        # The second input's first words all differ, so it takes the
        # one-sort shortcut
        for words, rows, want_alone, want_runs in (
            ([[7, 1], [7, 2], [9, 0], [7, 1], [5, 5], [7, 3], [9, 4]],
             [1, 1, 3, 1, 1, 1, 2], [1, 4, 5], [[0, 3], [2], [6]]),
            ([[7, 1], [9, 0], [5, 5], [3, 4]], [1, 3, 1, 2], [0, 2], [[1], [3]]),
        ):
            signs = np.array(words, dtype=np.uint64).view(np.uint8)
            order, start, ones = _pattern_runs(signs, np.array(rows))
            runs = [order[a:b].tolist() for a, b in zip(start[:-1], start[1:])]
            assert ones == len(want_alone)
            assert runs[:ones] == [[c] for c in want_alone]
            assert sorted(sorted(run) for run in runs[ones:]) == want_runs

    def test_pattern_runs_are_the_same_with_or_without_room_for_the_class(self, monkeypatch):
        # one uint64 word per class. Small words leave room above them for a
        # class index, so one sort of word << bits | class groups them; the
        # same words shifted into the top bits leave none, and the grouping
        # falls back to _runs, or to the all-distinct shortcut. Classes 0,
        # 2 and 6 share a pattern in the first input, and so do 1 and 5;
        # class 4 holds several rows alone in its pattern
        calls = []

        def counting_runs(key, words):
            calls.append(key.size)
            return runs_of(key, words)

        runs_of = selectors._runs
        monkeypatch.setattr(selectors, "_runs", counting_runs)
        rows = np.array([1, 1, 3, 1, 2, 1, 1])
        for words, repeats, want_alone, want_runs in (
            ([7, 9, 7, 5, 3, 9, 7], True, [3], [[0, 2, 6], [1, 5], [4]]),
            ([7, 9, 6, 5, 3, 8, 2], False, [0, 1, 3, 5, 6], [[2], [4]]),
        ):
            for shift in (0, 60):
                calls.clear()
                signs = (np.array(words, dtype=np.uint64) << shift).view(np.uint8).reshape(-1, 8)
                order, start, ones = _pattern_runs(signs, rows)
                runs = [order[a:b].tolist() for a, b in zip(start[:-1], start[1:])]
                assert ones == len(want_alone), shift
                assert runs[:ones] == [[c] for c in want_alone], shift
                assert sorted(runs[ones:]) == want_runs, shift  # classes ascending
                assert calls == ([len(words)] if shift and repeats else []), shift

    def test_ranking_deepens_through_equal_u(self):
        # pattern (+, +) holds the corner (1, 1), a few more classes of
        # distinct u below 2 and, from position _RANK_DEPTH - 7 on, more
        # than _RANK_DEPTH + 7 classes of entries near 1e-9, whose u = 2 -
        # |z|^2 / 2 rounds to 2.0 though their |z|^2 differ. The greedy
        # ranks the pattern _RANK_DEPTH classes deep first, then deepens
        # twice inside the run of equal u, and at k = n - 1 it takes all
        # but one row, so every class is read
        depth = selectors._RANK_DEPTH
        rng = np.random.default_rng(27)
        big = rng.uniform(0.1, 0.9, size=(depth - 8, 2))
        tiny = rng.uniform(1.0, 9.0, size=(depth + 64, 2)) * 1e-9
        rest = rng.uniform(0.1, 0.9, size=(60, 2)) * np.resize([[-1, -1], [1, -1], [-1, 1]],
                                                                (60, 2))
        x = np.vstack([[[-1.0, -1.0], [1.0, 1.0]], big, tiny, rest])
        x = x[np.r_[0:2, 2 + rng.permutation(x.shape[0] - 2)]]
        norms2, _ = _oss_rows(x)
        u = 2 - 0.5 * norms2
        is_tiny = np.abs(x).max(axis=1) < 1e-8
        assert (u[is_tiny] == 2.0).all() and np.unique(norms2[is_tiny]).size == tiny.shape[0]
        plus = ((x > 0).all(axis=1) & (u < 2.0)).sum()
        assert plus < depth and 2 * depth < plus + tiny.shape[0]
        rows = np.r_[0:x.shape[0], rng.integers(0, x.shape[0], size=200)]
        for data, plain in ((x, x), (Resample(x, rows), x[rows])):
            k = plain.shape[0] - 1
            assert select_oss(data, k).indices.tolist() == oss_rowwise_greedy(plain, k)

    @pytest.mark.parametrize("p", [3, 4, 10, 33, 64])
    def test_resample_matches_rowwise_greedy_at_scale(self, p):
        rng = np.random.default_rng(100 + p)
        x = rng.normal(size=(20_000, p))
        x = x[rng.integers(0, 20_000, size=20_000)]
        assert select_oss(x, 200).indices.tolist() == oss_rowwise_greedy(x, 200)

    def test_benchmark_shape_indices_are_pinned(self):
        # sha256 of the int64 indices the row-by-row greedy picks at the
        # benchmark's shape, 1e5 x 10 mvnormal (seed 41) and k = 300: on
        # the distinct rows, then on one bootstrap resample of them, copied
        # and as a Resample
        x = gen_covariates(ScenarioConfig(case="mvnormal", n=100_000, p=10,
                                          k=11, seed=41)).values
        rows = np.random.default_rng(41).integers(0, x.shape[0], size=x.shape[0])
        for data, want in (
            (x, "0fbd96a0d9fd7ea8d3d86d22dff1624f8372d7f76e3d48fc3a90178038203aa2"),
            (x[rows], "a359fd37e52d0785fc0777a3463c9e40c8d225164842b0e887b77ab6ccb7819f"),
            (Resample(x, rows), "a359fd37e52d0785fc0777a3463c9e40c8d225164842b0e887b77ab6ccb7819f"),
        ):
            idx = select_oss(data, 300).indices.astype(np.int64)
            assert hashlib.sha256(idx.tobytes()).hexdigest() == want

    def test_wide_shape_indices_are_pinned(self):
        # sha256 of the int64 indices the row-by-row greedy picks with 80
        # sign bits per row, 2e4 x 40 mvnormal (seed 41) and k = 300: on
        # the distinct rows, then on one bootstrap resample of them, copied
        # and as a Resample, where classes of several rows share a pattern
        # with no other class
        x = gen_covariates(ScenarioConfig(case="mvnormal", n=20_000, p=40,
                                          k=41, seed=41)).values
        rows = np.random.default_rng(41).integers(0, x.shape[0], size=x.shape[0])
        for data, want in (
            (x, "1f85ac0af84bf45de6f3e0de54338488f84d18fc9669ea6440d9ab7d6c506c90"),
            (x[rows], "01963b04aa750f679a021e8e5c94e5d44a3e381baaaff0212c2ebc4c53fa01e0"),
            (Resample(x, rows), "01963b04aa750f679a021e8e5c94e5d44a3e381baaaff0212c2ebc4c53fa01e0"),
        ):
            idx = select_oss(data, 300).indices.astype(np.int64)
            assert hashlib.sha256(idx.tobytes()).hexdigest() == want

    def test_equal_u_classes_of_one_pattern_tie_to_the_lowest_row(self):
        # the corners at -1 and 1 leave the scaling close to the identity, so
        # entries of about 1e-9 keep their signs and give |z|^2 near 1e-18.
        # Classes a (rows 2, 4), b (rows 3, 6) and c (row 5) share the
        # pattern (+, +) and differ in |z|^2, yet u = 2 - |z|^2 / 2 rounds to
        # 2.0 for all three, so every loss term ties between them. Once row
        # 2 is taken, a still holds row 4, and row 3 of b must come first
        a, b, c = [1e-9, 2e-9], [3e-9, 1e-9], [2e-9, 2e-9]
        x = np.array([[-1.0, -1.0], [1.0, 1.0], a, b, a, c, b,
                      [-2e-9, 1e-9], [1e-9, -3e-9]])
        norms2, signs = _oss_rows(x)
        assert len({norms2[2], norms2[3], norms2[5]}) == 3
        assert signs[2].tobytes() == signs[3].tobytes() == signs[5].tobytes()
        assert (2 - 0.5 * norms2[[2, 3, 5]] == 2.0).all()
        want = oss_naive_greedy(x, x.shape[0] - 1)
        assert want.index(3) < want.index(4)
        for k in range(2, x.shape[0]):
            assert select_oss(x, k).indices.tolist() == want[:k], k

    def test_every_class_of_a_pattern_runs_out_up_to_n_minus_1(self):
        # half-step values in [-2, 2], with both corners present, scale to
        # z = x / 2 exactly: every loss is exact and its ties are real. Two
        # patterns hold several classes each, and at k = n - 1 one row is
        # left, so every class of at least one of them has run out
        rng = np.random.default_rng(29)
        x = rng.integers(-4, 5, size=(24, 2)) / 2.0
        x[0], x[1] = -2.0, 2.0
        x[2:9] = rng.integers(1, 4, size=(7, 2)) / 2.0    # (+, +)
        x[9:16] = -rng.integers(1, 4, size=(7, 2)) / 2.0  # (-, -)
        n = x.shape[0]
        want = oss_naive_greedy(x, n - 1)
        for k in range(2, n):
            assert select_oss(x, k).indices.tolist() == want[:k], k
        norms2, _ = _oss_rows(x)
        for rows in (range(2, 9), range(9, 16)):
            assert len({norms2[i] for i in rows}) > 1
        assert set(range(2, 9)) <= set(want) or set(range(9, 16)) <= set(want)

    def test_follower_within_the_margin_is_replayed(self):
        # rows equal to a base row up to a relative 1e-15 share its signs,
        # and their u differ from each other's by a few ulps: too close to
        # rule out a tie, so the greedy rebuilds their scores. The row-by-
        # row greedy sums the same floats in the same order
        rng = np.random.default_rng(31)
        base = rng.normal(size=(30, 3))
        x = np.vstack([base, base[:10] * (1 + rng.integers(1, 6, size=(10, 1)) * 1e-15),
                       base[:10] * (1 - rng.integers(1, 6, size=(10, 1)) * 1e-15)])
        norms2, _ = _oss_rows(x)
        u = 3 - 0.5 * norms2
        assert (u[30:40] != u[:10]).any()
        assert select_oss(x, 45).indices.tolist() == oss_rowwise_greedy(x, 45)

    def test_follower_at_the_margins_edge_matches_rowwise_greedy(self):
        # followers as above, but with u gaps of about 1, 2 and 8 times the
        # tie margin (t + 8) 2^-50 sqrt(m) of the step t that picks the
        # first of the pair at score m: at the edge a follower is rebuilt
        # or ruled out, beyond it ruled out. The corners keep z = x / 5
        # up to rounding, so scaling a row by 1 + e moves its u by about
        # e |z|^2, and one correction of e lands each gap near its target
        rng = np.random.default_rng(31)
        base = rng.normal(size=(30, 3))
        corners = np.array([[-5.0] * 3, [5.0] * 3])
        pairs = [(2 + j, 32 + j) for j in range(10)]
        want = np.resize([1.0, 2.0, 8.0], 10)
        scale = np.full(10, 1e-13)
        for _ in range(2):
            x = np.vstack([corners, base, base[:10] * (1 + scale[:, None])])
            got, picks = _margin_ratios(x, pairs)
            scale *= want / got
        assert np.allclose(got, want, rtol=0.2)
        assert select_oss(x, x.shape[0] - 1).indices.tolist() == picks

    def test_delta_above_255_matches_rowwise_greedy(self):
        # p = 300: 600 sign bits in 75 byte planes. Rows share most signs
        # with a common pattern, so most deltas exceed 255 and a uint8
        # count would wrap; the rows scaled by a half share their row's
        # pattern, so heads change and scores are rebuilt
        rng = np.random.default_rng(300)
        common = rng.choice([-1.0, 1.0], size=300)
        x = np.where(rng.random((200, 300)) < 0.05, -common, common) \
            * rng.uniform(0.1, 1.0, size=(200, 300))
        x[0], x[1] = -1.0, 1.0
        x = np.vstack([x, x[2:42] * 0.5])
        _, signs = _oss_rows(x)
        bits = np.unpackbits(signs, axis=1).astype(np.int64)
        delta = bits @ bits.T  # delta of every pair of rows
        assert delta[np.triu_indices(x.shape[0], 1)].max() >= 256
        rows = rng.integers(0, x.shape[0], size=400)
        for data, plain in ((x, x), (Resample(x, rows), x[rows])):
            for k in (60, 150):
                assert select_oss(data, k).indices.tolist() == oss_rowwise_greedy(plain, k), k

    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["grid", "rounded", "resample"]),
           p=st.sampled_from([1, 2, 3, 4, 5, 33]), n=st.integers(4, 12))
    @settings(max_examples=60, deadline=None)
    def test_pattern_heads_match_naive_greedy(self, seed, kind, p, n):
        # half-step values in [-2, 2] with both corners present scale to
        # z = x / 2 exactly, so ties are exact whatever the summation order
        rng = np.random.default_rng(seed)
        if kind == "grid":
            x = rng.integers(-4, 5, size=(n, p)) / 2.0
        else:
            x = np.clip(np.round(rng.normal(size=(n, p)) * 2.0) / 2.0, -2.0, 2.0)
        x[0], x[1] = -2.0, 2.0
        data = x
        if kind == "resample":
            rows = np.concatenate([[0, 1], rng.integers(0, n, size=n)])
            data, x = Resample(x, rows), x[rows]
        want = oss_naive_greedy(x, x.shape[0] - 1)
        for k in range(2, x.shape[0]):
            assert select_oss(data, k).indices.tolist() == want[:k], k

    def test_deterministic(self):
        x = np.random.default_rng(17).normal(size=(90, 4))
        a = select_oss(x, 10).indices
        b = select_oss(x, 10).indices
        assert np.array_equal(a, b)

    def test_constant_column_rejected_by_name(self):
        x = np.random.default_rng(2).normal(size=(25, 3))
        x[:, 1] = 7.0
        with pytest.raises(ScalingError) as err:
            select_oss(x, 6)
        assert err.value.column == 1
        assert "1" in str(err.value)

    def test_distinct_and_in_range(self):
        x = np.random.default_rng(6).normal(size=(70, 3))
        idx = select_oss(x, 14).indices
        assert idx.size == 14 == np.unique(idx).size
        assert idx.min() >= 0 and idx.max() < 70

    @pytest.mark.parametrize("p", [1, 4, 5, 8, 16, 17, 32, 33, 70])
    def test_packed_signs_match_python_integers(self, p):
        # column 0 spans [-10, 10], so its zeros scale to exact zeros,
        # which carry no sign bit
        x = np.random.default_rng(p).normal(size=(30, p))
        x[::4, 0] = 0.0
        x[1, 0], x[2, 0] = -10.0, 10.0
        z = oss_scale(x)
        assert not z[::4, 0].any()
        _, signs = _oss_rows(x)
        assert signs.dtype == np.uint8 and signs.shape == (30, 8 * -(-2 * p // 64))
        for i, row in enumerate(z):
            assert signs[i].tobytes() == _sign_pattern(row).to_bytes(signs.shape[1], "little")

    def test_validation(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ConfigError):
            select_oss(x, 1)
        with pytest.raises(ConfigError):
            select_oss(x, 11)


def _sign_pattern(z):
    """The row's strict signs [z > 0 | z < 0] as one Python integer."""
    p = z.size
    return sum(1 << j for j in range(p) if z[j] > 0) \
        + sum(1 << (p + j) for j in range(p) if z[j] < 0)


def _margin_ratios(x, pairs):
    """Each (row, follower) pair's u gap over the tie margin (t + 8) 2^-50
    sqrt(m), t being the step at which the row-by-row greedy picks the
    first of the two and m its score then; and that greedy's n - 1 picks."""
    picks = oss_rowwise_greedy(x, x.shape[0] - 1)
    z = oss_scale(x)
    u = x.shape[1] - 0.5 * _oss_rows(x)[0]
    ratios = []
    for pair in pairs:
        t = min(picks.index(r) for r in pair if r in picks)
        m = sum(oss_pair_loss(z[picks[t]], z[s]) for s in picks[:t])
        ratios.append(abs(u[pair[1]] - u[pair[0]]) / ((t + 8) * 2.0 ** -50 * np.sqrt(m)))
    return np.array(ratios), picks


def _unit_box_case(n, p, seed):
    """n x p normals holding +0.0 and -0.0 throughout, with zeros as the
    minimum of column 0 and the maximum of the last column, and repeated
    extremes in column 1 (mod p)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    x[:, 0] = np.abs(x[:, 0])
    x[:, -1] = -np.abs(x[:, -1])
    x[rng.integers(0, n, size=max(1, n // 8)), :] = 0.0
    x[rng.integers(0, n, size=max(1, n // 8)), :] = -0.0
    j = 1 % p
    x[rng.integers(0, n, size=3), j] = x[:, j].min()
    x[rng.integers(0, n, size=3), j] = x[:, j].max()
    return x


def _oss_outcome(X, k):
    """select_oss's indices, or the type, message and column of its error."""
    try:
        return select_oss(X, k).indices.tolist()
    except (ConfigError, ScalingError) as exc:
        return type(exc), str(exc), getattr(exc, "column", None)


class TestOssOnResample:
    """select_oss(Resample(data, rows), k) is select_oss(data.take(rows), k)
    bit for bit: the same picks, or the same error."""

    @staticmethod
    def _assert_same(base, rows, ks):
        res = Resample(base, rows)
        copy = DataMatrix(base).take(rows)
        for k in ks:
            assert _oss_outcome(res, k) == _oss_outcome(copy, k), k

    def test_continuous_base(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(3000, 5))
        self._assert_same(base, rng.integers(0, 3000, size=3000), (2, 50, 400, 2999))
        # a column-major base: Resample and take hold it row-major alike
        self._assert_same(np.asfortranarray(base), rng.integers(0, 3000, size=3000),
                          (300,))

    def test_repeated_integer_valued_rows(self):
        # repeated base rows and integer values: distinct base rows share
        # |z|^2 and signs and must merge into one class
        rng = np.random.default_rng(6)
        base = np.round(rng.normal(size=(60, 3)) * 2)
        base = base[rng.integers(0, 60, size=400)]
        self._assert_same(base, rng.integers(0, 400, size=400), (2, 30, 150, 399))
        self._assert_same(base, rng.integers(0, 400, size=1000), (500,))

    @pytest.mark.parametrize("p", [33, 40])
    def test_two_sign_words(self, p):
        rng = np.random.default_rng(p)
        base = np.vstack([rng.normal(size=(1500, p)),
                          rng.integers(-1, 2, size=(500, p)).astype(float)])
        self._assert_same(base, rng.integers(0, 2000, size=2000), (2, 300))

    def test_column_constant_on_the_rows_present(self):
        base = np.random.default_rng(7).normal(size=(50, 3))
        base[:, 1] = 4.0
        base[0, 1] = 5.0
        rows = np.arange(1, 50).repeat(2)
        got = _oss_outcome(Resample(base, rows), 10)
        assert got == _oss_outcome(DataMatrix(base).take(rows), 10)
        assert got[0] is ScalingError and got[2] == 1

    @pytest.mark.parametrize("k", [40, 41])
    def test_k_not_below_n(self, k):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(10, 2))
        rows = rng.integers(0, 10, size=40)
        got = _oss_outcome(Resample(base, rows), k)
        assert got == _oss_outcome(DataMatrix(base).take(rows), k)
        assert got[0] is ConfigError

    def test_matrix_is_the_copied_resample(self):
        rng = np.random.default_rng(9)
        data = DataMatrix(rng.normal(size=(20, 3)), rng.normal(size=20))
        rows = rng.integers(0, 20, size=35)
        res = Resample(data, rows)
        assert res.values.shape == (35, 3) and res.n == 35 and res.p == 3
        assert np.array_equal(res.values, data.values[rows])
        assert np.array_equal(res.response, data.response[rows])
        assert res.data is data and np.array_equal(res.rows, rows)

    @pytest.mark.parametrize("rows, error", [
        (np.zeros((2, 2), dtype=int), DimensionError),
        (np.zeros(0, dtype=int), DimensionError),
        (np.zeros(3), ContractError),
        (np.array([0, -1]), ContractError),
        (np.array([0, 20]), ContractError),
    ], ids=["2-d", "empty", "float", "negative", "past-the-end"])
    def test_rows_checked(self, rows, error):
        with pytest.raises(error):
            Resample(np.ones((20, 2)), rows)


class TestResampleIsItsCopy:
    """Every consumer reads Resample(data, rows) as data.take(rows)."""

    def test_every_consumer_reads_the_copy(self):
        rng = np.random.default_rng(11)
        data = DataMatrix(rng.normal(size=(600, 4)), rng.normal(size=600))
        rows = rng.integers(0, 600, size=600)
        res, copy = Resample(data, rows), data.take(rows)
        assert isinstance(res, DataMatrix)
        assert np.array_equal(res.values, copy.values)
        assert np.array_equal(res.response, copy.response)

        def same(a, b):
            assert np.array_equal(a.indices, b.indices)
            assert a.k_star == b.k_star
            assert np.array_equal(a.condition_trace, b.condition_trace)

        ranked = rank_by_leverage(res, 60), rank_by_leverage(copy, 60)
        assert np.array_equal(ranked[0].scores, ranked[1].scores)
        assert np.array_equal(ranked[0].head, ranked[1].head)
        for threshold in (None, 15.0):
            cfg = LevssConfig(k=60, threshold=threshold, seed=3)
            same(select_levss(res, cfg), select_levss(copy, cfg))
        same(select_iboss(res, 40), select_iboss(copy, 40))
        same(select_uniform(res, 50, seed=4), select_uniform(copy, 50, seed=4))
        same(select_oss(res, 50), select_oss(copy, 50))
        fits = fit_ols(res, res.response), fit_ols(copy, copy.response)
        assert fits[0].intercept == fits[1].intercept
        assert np.array_equal(fits[0].slopes, fits[1].slopes)
        assert np.array_equal(fits[0].singular_values, fits[1].singular_values)


class TestScaleToUnitBox:
    """The blocked preparation pass gives the OSS scaling's |z|^2 and signs
    bit for bit: the same values as the whole-matrix formula."""

    @staticmethod
    def _assert_matches_reference(x):
        norms2, signs = _oss_rows(x)
        z = oss_scale(x)
        want = np.einsum("ij,ij->i", z, z)
        assert np.array_equal(norms2.view(np.int64), want.view(np.int64))
        assert signs.shape == (x.shape[0], 8 * -(-2 * x.shape[1] // 64))
        for i in range(x.shape[0]):
            pattern = _sign_pattern(z[i]).to_bytes(signs.shape[1], "little")
            assert signs[i].tobytes() == pattern, i

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 1000, _OSS_BLOCK_ROWS - 1,
                                   _OSS_BLOCK_ROWS, _OSS_BLOCK_ROWS + 1,
                                   2 * _OSS_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("p", [1, 3, 4, 5, 8, 16, 17, 32, 33, 50, 70])
    def test_matches_reference_formula_bit_for_bit(self, n, p):
        x = _unit_box_case(n, p, seed=n * 100 + p)
        lo, hi = _column_extrema(x)
        assert np.array_equal(lo, x.min(axis=0)) and np.array_equal(hi, x.max(axis=0))
        if n == 1:  # every column is constant
            with pytest.raises(ScalingError) as err:
                _oss_rows(x)
            assert err.value.column == 0
            return
        self._assert_matches_reference(x)

    def test_fortran_order_input(self):
        # a DataMatrix holds column-major input row-major, the one layout
        # the pass reads
        for n, p in ((130, 3), (_OSS_BLOCK_ROWS + 1, 10), (2 * _OSS_BLOCK_ROWS + 1, 33)):
            vals = DataMatrix(np.asfortranarray(_unit_box_case(n, p, seed=5))).values
            assert vals.flags.c_contiguous
            self._assert_matches_reference(vals)

    def test_constant_column_is_named(self):
        x = np.random.default_rng(3).normal(size=(_OSS_BLOCK_ROWS + 1, 3))
        x[:, 2] = 1.5
        with pytest.raises(ScalingError) as err:
            _oss_rows(x)
        assert err.value.column == 2

    @pytest.mark.parametrize("case", ["wide", "subnormal", "outlier", "zeros"])
    def test_norms_lie_between_zero_and_p(self, case):
        # select_oss's head rule rests on 0 <= |z|^2 <= p, which makes every
        # loss base u - b + delta non-negative
        rng = np.random.default_rng(12)
        n = _OSS_BLOCK_ROWS + 7
        x = rng.normal(size=(n, 4))
        x[:, 1] = {
            "wide": np.r_[-1e308, 1e308, rng.uniform(-1.0, 1.0, n - 2) * 1e308],
            "subnormal": np.r_[1e-310, 3e-310, rng.uniform(1e-310, 3e-310, n - 2)],
            "outlier": np.r_[rng.normal(size=n - 1), 1e300],
            "zeros": rng.integers(-1, 2, n).astype(float),
        }[case]
        if case == "zeros":       # a second column with exact zeros
            x[:, 3] = rng.integers(-2, 3, n).astype(float)
        with np.errstate(all="raise"):
            norms2, signs = _oss_rows(x)
        assert np.all((norms2 >= 0.0) & (norms2 <= 4.0))
        if case == "zeros":       # zeros scale to exact zeros, with no sign bit
            zero = x[:, 1] == 0.0
            bits = np.unpackbits(signs, axis=1, bitorder="little")
            assert zero.any() and not bits[zero][:, [1, 5]].any()


class TestUniform:
    def test_full_take_is_identity(self):
        x = np.random.default_rng(0).normal(size=(12, 2))
        assert np.array_equal(select_uniform(x, 12).indices, np.arange(12))

    def test_seed_determinism(self):
        x = np.random.default_rng(0).normal(size=(100, 2))
        assert np.array_equal(select_uniform(x, 10, seed=5).indices, select_uniform(x, 10, seed=5).indices)
        assert not np.array_equal(select_uniform(x, 10, seed=5).indices, select_uniform(x, 10, seed=6).indices)

    def test_without_replacement(self):
        x = np.zeros((40, 1))
        idx = select_uniform(x, 25, seed=3).indices
        assert np.unique(idx).size == 25

    def test_frequencies_are_flat(self):
        x = np.zeros((10, 1))
        counts = np.zeros(10)
        draws = 2000
        for seed in range(draws):
            counts[select_uniform(x, 3, seed=seed).indices] += 1
        expect = draws * 0.3
        sd = np.sqrt(draws * 0.3 * 0.7)
        assert np.all(np.abs(counts - expect) <= 4 * sd)

    def test_validation(self):
        x = np.zeros((5, 1))
        with pytest.raises(ConfigError):
            select_uniform(x, 6)
        with pytest.raises(ConfigError):
            select_uniform(x, 0)

    @pytest.mark.parametrize("seed", [-1, 2.5, np.nan])
    def test_bad_seed_is_a_config_error(self, seed):
        x = np.random.default_rng(0).normal(size=(20, 2))
        with pytest.raises(ConfigError, match="seed"):
            select_uniform(x, 5, seed=seed)
        with pytest.raises(ConfigError, match="seed"):
            select_uniform(x, 20, seed=seed)  # the full take draws nothing

    def test_none_seed_draws_fresh_entropy(self):
        x = np.random.default_rng(0).normal(size=(20, 2))
        assert np.unique(select_uniform(x, 5, seed=None).indices).size == 5


@pytest.mark.parametrize("select", [
    lambda x, k: select_levss(x, LevssConfig(k=k)),
    select_iboss,
    select_oss,
    select_uniform,
], ids=["levss", "iboss", "oss", "uniform"])
@pytest.mark.parametrize("k", [20.7, 20.0001, np.float64(19.5), np.nan, np.inf])
def test_non_integer_k_rejected(select, k):
    x = np.random.default_rng(4).normal(size=(200, 3))
    with pytest.raises(ConfigError, match="positive integer"):
        select(x, k)
