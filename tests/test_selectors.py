"""Selector behavior: leverage-ordered, extreme-per-covariate, orthogonal
greedy, and uniform baselines."""

from itertools import combinations

import numpy as np
import pytest

from subdata import (
    ConfigError,
    LevssConfig,
    ScalingError,
    iboss_tails,
    leverage_scores,
    rank_by_leverage,
    select_iboss,
    select_levss,
    select_oss,
    select_uniform,
    thin_svd,
)
from subdata.selectors import (_column_extrema, _iboss_quotas, _pack_signs,
                               _scale_to_unit_box)

from _oracles import (
    hat_diagonal,
    iboss_sequential_trace,
    oss_naive_greedy,
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

    def test_elapsed_recorded(self):
        x = _case2_like(100, 3, 1)
        res = select_levss(x, LevssConfig(k=10))
        assert res.elapsed >= 0.0

    def test_one_ranking_serves_every_cell(self):
        x = np.random.default_rng(5).uniform(size=(600, 3))
        ranking = rank_by_leverage(x)
        for k, t in [(10, None), (10, 1.5), (40, 3.0), (40, np.inf)]:
            cfg = LevssConfig(k=k, threshold=t, seed=2)
            shared, alone = select_levss(ranking, cfg), select_levss(x, cfg)
            assert np.array_equal(shared.indices, alone.indices)
            assert shared.k_star == alone.k_star
            assert np.array_equal(shared.condition_trace, alone.condition_trace)
            assert shared.elapsed >= ranking.elapsed
        with pytest.raises(ConfigError, match="k > p"):
            select_levss(ranking, LevssConfig(k=3))
        with pytest.raises(ConfigError, match="n > k"):
            select_levss(ranking, LevssConfig(k=600))


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
        tails = iboss_tails(x, 120)
        for k in range(6, 121):
            shared, alone = select_iboss(tails, k), select_iboss(x, k)
            assert np.array_equal(shared.indices, alone.indices), k
            assert sorted(shared.indices.tolist()) == sorted(iboss_sequential_trace(x, k))
            assert shared.elapsed >= tails.elapsed
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
        # 2p sign bits fill uint8, uint16, uint32, one and two uint64 words
        for p in (1, 4, 5, 8, 16, 17, 32, 33):
            x = np.random.default_rng(40 + p).normal(size=(60, p))
            got = select_oss(x, 8).indices.tolist()
            assert got == oss_naive_greedy(x, 8), f"p={p}"

    def test_wide_pattern_matches_naive_greedy(self):
        # 140 sign bits: three uint64 words per row
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
        z = np.random.default_rng(p).normal(size=(30, p))
        z[::4, 0] = 0.0
        words = _pack_signs(z)
        bits_per_word = 8 * words.dtype.itemsize
        for i, row in enumerate(z):
            pattern = sum(1 << j for j in range(p) if row[j] > 0) \
                + sum(1 << (p + j) for j in range(p) if row[j] < 0)
            want = [(pattern >> (bits_per_word * w)) & ((1 << bits_per_word) - 1)
                    for w in range(words.shape[0])]
            assert [int(v) for v in words[:, i]] == want
        assert words.shape[0] == -(-2 * p // bits_per_word)
        assert words.dtype.itemsize == next((b for b in (1, 2, 4) if 2 * p <= 8 * b), 8)

    def test_validation(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ConfigError):
            select_oss(x, 1)
        with pytest.raises(ConfigError):
            select_oss(x, 11)


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


class TestScaleToUnitBox:
    """The blocked column extrema leave the OSS scaling bit for bit as it was."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 1000])
    @pytest.mark.parametrize("p", [1, 3, 50])
    def test_matches_reference_formula_bit_for_bit(self, n, p):
        x = _unit_box_case(n, p, seed=n * 100 + p)
        lo, hi = _column_extrema(x)
        assert np.array_equal(lo, x.min(axis=0)) and np.array_equal(hi, x.max(axis=0))
        if n == 1:  # every column is constant
            with pytest.raises(ScalingError) as err:
                _scale_to_unit_box(x)
            assert err.value.column == 0
            return
        got = _scale_to_unit_box(x)
        assert np.array_equal(got.view(np.int64), oss_scale(x).view(np.int64))

    def test_fortran_order_input(self):
        x = np.asfortranarray(_unit_box_case(130, 3, seed=5))
        got = _scale_to_unit_box(x)
        assert np.array_equal(got.view(np.int64), oss_scale(x).view(np.int64))

    def test_constant_column_is_named(self):
        x = np.random.default_rng(3).normal(size=(65, 3))
        x[:, 2] = 1.5
        with pytest.raises(ScalingError) as err:
            _scale_to_unit_box(x)
        assert err.value.column == 2


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
