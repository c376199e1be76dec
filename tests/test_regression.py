"""Least-squares fitting, intercept adjustment, and interaction expansion."""

import numpy as np
import pytest

from subdata import (
    DimensionError,
    SingularDesignError,
    adjusted_intercept,
    expand_interactions,
    expanded_column_count,
    fit_ols,
    with_intercept,
)
from subdata import regression


class TestFitOls:
    def test_exact_recovery_without_noise(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 4))
        beta = np.array([2.0, -1.0, 0.5, 3.0])
        y = 1.5 + x @ beta
        fit = fit_ols(x, y)
        assert fit.intercept == pytest.approx(1.5, abs=1e-10)
        assert np.allclose(fit.slopes, beta, atol=1e-10)

    def test_matches_normal_equations(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(40, 3))
            y = rng.normal(size=40)
            z = with_intercept(x)
            want = np.linalg.solve(z.T @ z, z.T @ y)
            fit = fit_ols(x, y)
            assert fit.intercept == pytest.approx(want[0], abs=1e-8)
            assert np.allclose(fit.slopes, want[1:], atol=1e-8)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 5))
        y = rng.normal(size=60)
        fit = fit_ols(x, y)
        r = y - fit.intercept - x @ fit.slopes
        z = with_intercept(x)
        assert np.max(np.abs(z.T @ r)) <= 1e-8

    def test_saturated_fit_interpolates(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=4)
        fit = fit_ols(x, y)
        assert np.allclose(fit.intercept + x @ fit.slopes, y, atol=1e-8)

    def test_duplicate_column_raises_with_rank(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(30, 2))
        x = np.column_stack([base, base[:, 0]])
        with pytest.raises(SingularDesignError) as err:
            fit_ols(x, np.ones(30))
        assert err.value.rank == 3  # intercept + 2 independent columns

    def test_constant_column_collides_with_intercept(self):
        rng = np.random.default_rng(2)
        x = np.column_stack([rng.normal(size=20), np.full(20, 3.0)])
        with pytest.raises(SingularDesignError) as err:
            fit_ols(x, np.ones(20))
        assert err.value.rank == 2  # intercept + 1 non-constant column

    def test_too_few_rows(self):
        with pytest.raises(SingularDesignError):
            fit_ols(np.ones((2, 3)) + np.random.default_rng(0).normal(size=(2, 3)), np.ones(2))


def _lstsq(x, y):
    return np.linalg.lstsq(with_intercept(x), y, rcond=None)[0]


@pytest.fixture
def gram_paths(monkeypatch):
    """Whether each fit_ols call's Gram guard let the normal equations serve."""
    taken = []

    def recording(gram):
        factor = real(gram)
        taken.append(factor is not None)
        return factor

    real = regression._gram_factor
    monkeypatch.setattr(regression, "_gram_factor", recording)
    return taken


class TestFitOlsKernel:
    """Which path fit_ols takes, and how close each comes to gelsd."""

    @pytest.mark.parametrize("n, p", [(8, 3), (22, 10), (5000, 10), (20000, 4)])
    def test_gram_path_matches_lstsq(self, gram_paths, n, p):
        # n = 2q at the first two shapes, n >> q at the others
        rng = np.random.default_rng(n + p)
        x = rng.normal(size=(n, p))
        y = 1.5 + x @ np.linspace(-2.0, 2.0, p) + rng.normal(size=n)
        fit = fit_ols(x, y)
        assert gram_paths == [True]
        got, want = np.r_[fit.intercept, fit.slopes], _lstsq(x, y)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_short_design_skips_the_gram_path(self, gram_paths):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(7, 3)), rng.normal(size=7)  # n = 2q - 1
        fit = fit_ols(x, y)
        assert gram_paths == []
        assert np.array_equal(np.r_[fit.intercept, fit.slopes], _lstsq(x, y))

    @pytest.mark.parametrize("case", ["offset 1e4", "near-duplicate column"])
    def test_ill_conditioned_design_falls_back_to_lstsq(self, gram_paths, case):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(400, 4))
        if case == "offset 1e4":
            x += 1e4
        else:
            x[:, 3] = x[:, 0] + 1e-5 * rng.normal(size=400)
        y = x @ np.ones(4) + rng.normal(size=400)
        z = with_intercept(x)
        assert np.linalg.cond(z) > np.sqrt(1e5)
        np.linalg.cholesky(z.T @ z)  # the Cholesky succeeds; the guard refuses
        fit = fit_ols(x, y)
        assert gram_paths == [False]
        want = _lstsq(x, y)
        assert fit.intercept == want[0]
        assert np.array_equal(fit.slopes, want[1:])

    def test_rank_deficient_design_falls_back(self, gram_paths):
        base = np.random.default_rng(1).normal(size=(30, 2))
        x = np.column_stack([base, base[:, 0]])
        with pytest.raises(SingularDesignError) as err:
            fit_ols(x, np.ones(30))
        assert gram_paths == [False] and err.value.rank == 3

    def test_leaves_inputs_untouched(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(60, 3)), rng.normal(size=60)
        x0, y0 = x.copy(), y.copy()
        fit_ols(x, y)
        assert np.array_equal(x, x0) and np.array_equal(y, y0)


class TestAdjustedIntercept:
    def test_formula(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(80, 3))
        y = rng.normal(size=80)
        sub = fit_ols(x[:20], y[:20])
        adj = adjusted_intercept(sub, x.mean(axis=0), float(y.mean()))
        want = y.mean() - x.mean(axis=0) @ sub.slopes
        assert adj.intercept == pytest.approx(want, abs=1e-12)
        assert np.array_equal(adj.slopes, sub.slopes)

    def test_full_data_adjustment_reproduces_joint_fit(self):
        # the first normal equation makes these identical in exact math
        rng = np.random.default_rng(6)
        x = rng.normal(size=(100, 4))
        y = 2.0 + x @ np.ones(4) + rng.normal(size=100)
        fit = fit_ols(x, y)
        adj = adjusted_intercept(fit, x.mean(axis=0), float(y.mean()))
        assert adj.intercept == pytest.approx(fit.intercept, abs=1e-10)

    def test_mean_length_checked(self):
        fit = fit_ols(np.random.default_rng(0).normal(size=(10, 2)), np.ones(10))
        with pytest.raises(DimensionError):
            adjusted_intercept(fit, np.zeros(3), 0.0)


class TestExpandInteractions:
    def test_two_covariates(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        z = expand_interactions(x)
        assert z.shape == (2, 3)
        assert np.array_equal(z[:, :2], x)
        assert np.array_equal(z[:, 2], [2.0, 12.0])

    def test_pair_order_is_lexicographic(self):
        x = np.arange(1.0, 5.0).reshape(1, 4)
        z = expand_interactions(x)
        # pairs (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
        assert np.array_equal(z[0, 4:], [2.0, 3.0, 4.0, 6.0, 8.0, 12.0])

    def test_ten_covariates_width(self):
        x = np.random.default_rng(0).normal(size=(7, 10))
        z = expand_interactions(x)
        assert z.shape == (7, 55)
        assert expanded_column_count(10) == 55
        assert expanded_column_count(2) == 3
        assert expanded_column_count(3) == 6

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 10, 20])
    def test_every_pair_in_lexicographic_order(self, p):
        x = np.random.default_rng(p).normal(size=(6, p))
        want = [x[:, j] * x[:, l] for j in range(p) for l in range(j + 1, p)]
        z = expand_interactions(x)
        assert z.shape == (6, p + len(want))
        assert np.array_equal(z[:, :p], x)
        for col, product in enumerate(want, start=p):
            assert np.array_equal(z[:, col], product)


class TestWithIntercept:
    def test_prepends_ones(self):
        x = np.arange(6.0).reshape(3, 2)
        z = with_intercept(x)
        assert z.shape == (3, 3)
        assert np.array_equal(z[:, 0], np.ones(3))
        assert np.array_equal(z[:, 1:], x)
