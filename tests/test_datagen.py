"""Synthetic scenario generators: supports, moments, determinism."""

import numpy as np
import pytest

from subdata import (
    ConfigError,
    DimensionError,
    NumericError,
    ScenarioConfig,
    expand_interactions,
    gen_covariates,
    gen_dataset,
    gen_response,
)
from subdata import datagen


def _cfg(**kw):
    base = dict(case="mvnormal", n=200, p=4, k=40, seed=0)
    base.update(kw)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    def test_defaults(self):
        cfg = _cfg()
        assert cfg.beta0 == 1.0
        assert cfg.sigma2 == 9.0
        assert np.array_equal(cfg.beta_slopes, np.ones(4))
        assert cfg.interaction is False

    def test_interaction_widens_slopes(self):
        cfg = _cfg(p=10, k=150, n=1000, interaction=True)
        assert cfg.design_width == 55
        assert cfg.beta_slopes.shape == (55,)

    def test_validation(self):
        with pytest.raises(ConfigError):
            _cfg(case="gaussian")
        with pytest.raises(ConfigError):
            _cfg(k=4)  # k must exceed p
        with pytest.raises(ConfigError):
            _cfg(n=39)  # n must cover k
        with pytest.raises(ConfigError):
            _cfg(sigma2=0.0)
        with pytest.raises(ConfigError):
            _cfg(beta_slopes=np.ones(3))
        with pytest.raises(ConfigError):
            _cfg(n=0)

    def test_k_equal_n_allowed(self):
        cfg = _cfg(k=200)
        assert cfg.k == cfg.n

    def test_custom_slopes_kept(self):
        beta = np.array([1.0, -2.0, 0.5, 0.0])
        cfg = _cfg(beta_slopes=beta)
        assert np.array_equal(cfg.beta_slopes, beta)


class TestCovariates:
    def test_uniform_support(self):
        x = gen_covariates(_cfg(case="uniform01", n=5000)).values
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert abs(x.mean() - 0.5) < 0.02

    def test_truncated_support(self):
        x = gen_covariates(_cfg(case="truncated-mvnormal", n=20000)).values
        assert np.max(np.abs(x)) <= 5.0

    def test_mvnormal_moments(self):
        x = gen_covariates(_cfg(case="mvnormal", n=200000, p=3, k=100)).values
        cov = np.cov(x.T)
        assert np.allclose(np.diag(cov), 1.0, atol=0.02)
        off = cov[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5, atol=0.02)

    def test_truncation_shrinks_tails(self):
        full = gen_covariates(_cfg(case="mvnormal", n=100000, p=2, k=50, seed=3)).values
        trunc = gen_covariates(
            _cfg(case="truncated-mvnormal", n=100000, p=2, k=50, seed=3)
        ).values
        assert trunc.var() <= full.var() * 1.02
        assert np.max(np.abs(trunc)) <= 5.0

    def test_bitwise_determinism(self):
        a = gen_covariates(_cfg(seed=7)).values
        b = gen_covariates(_cfg(seed=7)).values
        assert np.array_equal(a, b)
        c = gen_covariates(_cfg(seed=8)).values
        assert not np.array_equal(a, c)

    def test_rejection_cap_raises(self, monkeypatch):
        monkeypatch.setattr(datagen, "TRUNCATION_BOUND", 1e-6)
        monkeypatch.setattr(datagen, "MAX_REJECTION_ROUNDS", 5)
        with pytest.raises(NumericError):
            gen_covariates(_cfg(case="truncated-mvnormal"))


class TestResponse:
    def test_linear_structure(self):
        cfg = _cfg(n=100000, p=3, k=100, sigma2=1e-8, seed=2)
        data = gen_dataset(cfg)
        want = cfg.beta0 + data.values @ cfg.beta_slopes
        assert np.max(np.abs(data.response - want)) < 1e-3

    def test_noise_variance(self):
        cfg = _cfg(n=100000, p=2, k=100, sigma2=9.0, seed=5)
        data = gen_dataset(cfg)
        resid = data.response - cfg.beta0 - data.values @ cfg.beta_slopes
        assert abs(resid.var() - 9.0) < 0.2
        assert abs(resid.mean()) < 0.05

    def test_interaction_response_uses_products(self):
        cfg = _cfg(n=500, p=3, k=50, interaction=True, sigma2=1e-10, seed=9)
        data = gen_dataset(cfg)
        z = expand_interactions(data.values)
        want = cfg.beta0 + z @ cfg.beta_slopes
        assert np.max(np.abs(data.response - want)) < 1e-4

    def test_noise_stream_independent_of_case(self):
        # same seed, different covariate case: noise draw is unchanged
        a = _cfg(case="uniform01", n=1000, sigma2=4.0, seed=11)
        b = _cfg(case="mvnormal", n=1000, sigma2=4.0, seed=11)
        da, db = gen_dataset(a), gen_dataset(b)
        ra = da.response - a.beta0 - da.values @ a.beta_slopes
        rb = db.response - b.beta0 - db.values @ b.beta_slopes
        assert np.allclose(ra, rb, atol=1e-10)

    def test_covariates_wider_than_the_config_rejected(self):
        cfg = _cfg(p=3)
        wide = np.zeros((10, 4))
        with pytest.raises(DimensionError, match="design has 4 columns, beta_slopes has 3"):
            gen_response(wide, cfg)

    def test_gen_response_matches_dataset(self):
        cfg = _cfg(seed=13)
        x = gen_covariates(cfg)
        y = gen_response(x, cfg)
        assert np.array_equal(y, gen_dataset(cfg).response)
