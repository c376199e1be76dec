"""Factorization, leverage, conditioning, and log-determinant checks."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subdata import (
    ConfigError,
    ContractError,
    DataMatrix,
    DimensionError,
    as_data_matrix,
    condition_number,
    fit_ols,
    leverage_scores,
    logdet_info,
    select_oss,
    thin_svd,
)
from subdata.linalg import matrix_rank_from_singular_values

from _oracles import det_cofactor, hat_diagonal


class TestDataMatrix:
    def test_coerces_to_float64(self):
        d = as_data_matrix([[1, 2], [3, 4]])
        assert d.values.dtype == np.float64
        assert d.n == 2 and d.p == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ContractError):
            DataMatrix(np.array([[1.0, np.nan]]))
        with pytest.raises(ContractError):
            DataMatrix(np.array([[np.inf], [1.0]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(DimensionError):
            DataMatrix(np.arange(4.0))
        with pytest.raises(DimensionError):
            DataMatrix(np.empty((0, 3)))
        with pytest.raises(DimensionError, match="ndim=0"):
            DataMatrix(np.float64(1.0))

    def test_response_must_match_rows(self):
        x = np.ones((4, 2))
        with pytest.raises(DimensionError):
            DataMatrix(x, response=np.ones(3))
        with pytest.raises(ContractError):
            DataMatrix(x, response=np.array([1.0, 2.0, np.nan, 4.0]))

    @pytest.mark.parametrize("layout", ["row-major", "column-major", "strided view"])
    def test_arrays_are_row_major(self, layout):
        base = np.random.default_rng(2).normal(size=(30, 9))
        x, y = {"row-major": (base[:, :4].copy(), base[:, 8].copy()),
                "column-major": (np.asfortranarray(base[:, :4]), base[:, 8].copy()),
                "strided view": (base[::2, 1::2], base[::2, 8])}[layout]
        d = DataMatrix(x, response=y)
        assert d.values.flags.c_contiguous and d.response.flags.c_contiguous
        assert np.array_equal(d.values, x) and np.array_equal(d.response, y)
        # copied once where the layout differs, never where it is row-major
        assert (d.values is x) == (layout == "row-major")
        assert (d.response is y) == (layout != "strided view")

    def test_column_major_input_gives_the_same_bits(self):
        # fit_ols sums in memory order, so its last bits would follow the
        # layout of X if a DataMatrix did not give X one layout
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3000, 10)) @ rng.normal(size=(10, 10))
        y = x @ rng.normal(size=10) + rng.normal(size=3000)
        xf = np.asfortranarray(x)
        fit, fit_f = fit_ols(x, y), fit_ols(xf, y)
        assert np.float64(fit.intercept).view(np.int64) == np.float64(fit_f.intercept).view(np.int64)
        assert np.array_equal(fit.slopes.view(np.int64), fit_f.slopes.view(np.int64))
        for k in (20, 300):
            assert np.array_equal(select_oss(x, k).indices, select_oss(xf, k).indices)

    def test_take_carries_response(self):
        d = DataMatrix(np.arange(8.0).reshape(4, 2), response=np.arange(4.0))
        sub = d.take(np.array([2, 0]))
        assert np.array_equal(sub.values, [[4.0, 5.0], [0.0, 1.0]])
        assert np.array_equal(sub.response, [2.0, 0.0])

    def test_take_equals_fancy_indexing(self):
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(50, 3)), rng.normal(size=50)
        rows = np.concatenate([rng.integers(-50, 50, size=200), [-50, -1, 0, 49]])
        sub = DataMatrix(x, response=y).take(rows)
        assert np.array_equal(sub.values.view(np.int64), x[rows].view(np.int64))
        assert np.array_equal(sub.response.view(np.int64), y[rows].view(np.int64))
        assert DataMatrix(x).take(rows).response is None

    @pytest.mark.parametrize("rows", [[True, False, True, False], [1.7, 0.2]])
    def test_take_refuses_non_integer_indices(self, rows):
        d = DataMatrix(np.arange(8.0).reshape(4, 2), response=np.arange(4.0))
        with pytest.raises(ContractError, match=f"dtype {np.asarray(rows).dtype}$"):
            d.take(rows)
        with pytest.raises(DimensionError):
            d.take([])

    @pytest.mark.parametrize("row", [50, -51])
    def test_take_out_of_range_raises(self, row):
        d = DataMatrix(np.ones((50, 2)), response=np.ones(50))
        with pytest.raises(IndexError):
            d.take([0, row])


class TestThinSvd:
    @pytest.mark.parametrize("n,p", [(8, 3), (50, 7), (400, 5), (260, 40), (6, 6)])
    def test_reconstruction_and_orthonormality(self, n, p):
        rng = np.random.default_rng(n * 100 + p)
        x = rng.normal(size=(n, p))
        u, s, v = thin_svd(x)
        assert u.shape == (n, p) and s.shape == (p,) and v.shape == (p, p)
        rel = np.linalg.norm(u * s @ v.T - x) / np.linalg.norm(x)
        assert rel <= 1e-8
        assert np.max(np.abs(u.T @ u - np.eye(p))) <= 1e-10
        assert np.max(np.abs(v.T @ v - np.eye(p))) <= 1e-10
        assert np.all(np.diff(s) <= 0) and s[-1] >= 0

    def test_ill_conditioned_still_orthonormal(self):
        # column scaling pushes kappa(X) near 1e9, forcing the careful branch
        rng = np.random.default_rng(7)
        x = rng.normal(size=(500, 6)) * np.array([1.0, 1e-3, 1e-5, 1e-7, 1e-9, 1.0])
        u, s, v = thin_svd(x)
        assert np.max(np.abs(u.T @ u - np.eye(6))) <= 1e-10
        rel = np.linalg.norm(u * s @ v.T - x) / np.linalg.norm(x)
        assert rel <= 1e-8

    def test_identity(self):
        u, s, v = thin_svd(np.eye(3))
        assert np.allclose(u @ np.diag(s) @ v.T, np.eye(3), atol=1e-14)
        assert np.allclose(s, 1.0)

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionError):
            thin_svd(np.ones((2, 5)))

    def test_accepts_data_matrix(self):
        d = as_data_matrix(np.random.default_rng(0).normal(size=(9, 2)))
        u, s, v = thin_svd(d)
        assert u.shape == (9, 2)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_leaves_input_untouched(self, order):
        # n >= 2p takes the Gram-Cholesky path
        x = np.array(np.random.default_rng(3).normal(size=(40, 4)), order=order)
        before = x.copy()
        for arg in (x, DataMatrix(x)):
            thin_svd(arg)
            assert np.array_equal(x, before)

    def test_rank_from_singular_values(self):
        assert matrix_rank_from_singular_values(np.array([3.0, 2.0, 1.0])) == 3
        assert matrix_rank_from_singular_values(np.array([3.0, 1e-30])) == 1
        assert matrix_rank_from_singular_values(np.array([0.0])) == 0


class _LapackSpy:
    """numpy.linalg as thin_svd sees it, noting the row count of each SVD
    and whether each Cholesky factorization succeeded."""

    def __init__(self, monkeypatch):
        self.svd_rows, self.cholesky_ok = [], []
        self._svd, self._cholesky = np.linalg.svd, np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "svd", self.svd)
        monkeypatch.setattr(np.linalg, "cholesky", self.cholesky)

    def svd(self, a, *args, **kwargs):
        self.svd_rows.append(a.shape[0])
        return self._svd(a, *args, **kwargs)

    def cholesky(self, a, *args, **kwargs):
        try:
            r = self._cholesky(a, *args, **kwargs)
        except np.linalg.LinAlgError:
            self.cholesky_ok.append(False)
            raise
        self.cholesky_ok.append(True)
        return r


def _guard_case(name):
    """(X, a well-scaled matrix with X's column space) for one guard case."""
    rng = np.random.default_rng(0)
    n, p = 2000, 5
    x = rng.normal(size=(n, p)) @ np.linalg.cholesky(0.5 + 0.5 * np.eye(p)).T
    if name == "near-collinear":
        noise = rng.normal(size=n)
        bad, good = x.copy(), x.copy()
        bad[:, -1] = x[:, 0] + 1e-6 * noise
        good[:, -1] = noise
        return bad, good
    if name.startswith("offset"):
        c = float(name.split()[1])
        bad = x + c
        # (x0 + c) / c and the differences x_j - x0 span the same space
        return bad, np.column_stack([bad[:, 0] / c, bad[:, 1:] - bad[:, :1]])
    if name == "column scaled by 1e8":
        bad = x.copy()
        bad[:, 0] *= 1e8
        return bad, x
    return x, x


class TestThinSvdGuard:
    """Which path thin_svd takes on each hard case, and the leverage it gives.

    The Gram path squares the condition number, so it is taken only for
    cond(X) <= sqrt(1e5); anything worse goes to gesdd.
    """

    @pytest.mark.parametrize("name, path, cholesky_ok, bound", [
        ("near-collinear", "gesdd", True, 1e-6),
        ("offset 1e9", "gesdd", False, 1e-4),
        ("offset 1e3", "gesdd", True, 1e-10),
        ("column scaled by 1e8", "gesdd", True, 1e-13),
        ("plain mvnormal", "gram", True, 1e-13),
    ])
    def test_path_and_leverage_error(self, monkeypatch, name, path, cholesky_ok, bound):
        x, well_scaled = _guard_case(name)
        spy = _LapackSpy(monkeypatch)
        h = leverage_scores(thin_svd(x))
        assert spy.cholesky_ok == [cholesky_ok]
        assert ("gesdd" if x.shape[0] in spy.svd_rows else "gram") == path
        q = np.linalg.qr(well_scaled)[0]
        want = np.einsum("ij,ij->i", q, q)
        assert np.max(np.abs(h - want) / want) <= bound


class TestLeverageScores:
    def test_matches_hat_diagonal_many_seeds(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 200))
            p = int(rng.integers(1, 9))
            x = rng.normal(size=(n, p))
            h = leverage_scores(thin_svd(x))
            assert np.max(np.abs(h - hat_diagonal(x))) <= 1e-8
            assert abs(h.sum() - p) <= 1e-6

    def test_bounds(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 4))
        h = leverage_scores(thin_svd(x))
        assert np.all(h >= 0.0) and np.all(h <= 1.0 + 1e-12)

    def test_rank_deficient_sums_to_rank(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(60, 3))
        x = np.column_stack([base, base[:, 0] + base[:, 2]])
        h = leverage_scores(thin_svd(x))
        assert abs(h.sum() - 3.0) <= 1e-8

    def test_orthogonal_design_closed_form(self):
        # for X with orthogonal columns, h_ii = sum_j x_ij^2 / ||col_j||^2
        x = np.array([[2.0, 0.0], [0.0, 3.0], [-2.0, 0.0], [0.0, -3.0]])
        h = leverage_scores(thin_svd(x))
        assert np.allclose(h, [0.5, 0.5, 0.5, 0.5], atol=1e-12)


class TestConditionNumber:
    def test_diagonal(self):
        assert condition_number(np.diag([4.0, 1.0])) == pytest.approx(4.0, abs=1e-12)

    def test_singular_is_infinite(self):
        assert condition_number(np.array([[1.0, 1.0], [1.0, 1.0]])) == np.inf

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(30, 4))
        g = a.T @ a
        c1 = condition_number(g)
        c2 = condition_number(1e6 * g)
        assert c1 == pytest.approx(c2, rel=1e-9)

    def test_identity_is_one(self):
        assert condition_number(np.eye(5)) == pytest.approx(1.0, abs=1e-12)

    def test_one_by_one(self):
        assert condition_number(np.array([[2.5]])) == pytest.approx(1.0)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            condition_number(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractError):
            condition_number(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ContractError):
            condition_number(np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestLogdetInfo:
    def test_frozen_seeded_value(self):
        # reference computed by 3x3 cofactor expansion of Z'Z, then
        # log(det) - 3*log(2); the scalar is pinned to catch regressions
        z = np.column_stack(
            [np.ones(10), np.random.default_rng(42).random((10, 2))]
        )
        got = logdet_info(z, sigma2=2.0)
        assert got == pytest.approx(-0.33589073187719815, abs=1e-12)

    def test_matches_cofactor_oracle(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            z = np.column_stack([np.ones(12), rng.normal(size=(12, 3))])
            want = np.log(det_cofactor(z.T @ z)) - 4 * np.log(3.5)
            assert logdet_info(z, sigma2=3.5) == pytest.approx(want, abs=1e-9)

    def test_sigma_identity(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(25, 4))
        for s2 in (0.5, 1.0, 9.0):
            want = logdet_info(z, 1.0) - z.shape[1] * np.log(s2)
            assert logdet_info(z, s2) == pytest.approx(want, abs=1e-10)

    def test_singular_gives_neg_inf(self):
        z = np.ones((6, 2))
        assert logdet_info(z, 1.0) == -np.inf

    def test_rank_below_q_under_eps_rank_gives_neg_inf(self):
        # a column at 1e-13 of the others' scale: Z'Z has a positive
        # determinant, but Z has rank 3 under EPS_RANK, as leverage and
        # every fit count it
        rng = np.random.default_rng(5)
        z = np.column_stack([np.ones(40), rng.normal(size=(40, 2)),
                             1e-13 * rng.normal(size=40)])
        sign, logabs = np.linalg.slogdet(z.T @ z)
        assert sign == 1.0 and np.isfinite(logabs)
        assert matrix_rank_from_singular_values(np.linalg.svd(z, compute_uv=False)) == 3
        assert logdet_info(z, 1.0) == -np.inf

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_design_gives_neg_inf(self, bad):
        z = np.column_stack([np.ones(6), np.arange(6.0)])
        z[2, 1] = bad
        assert logdet_info(z, 1.0) == -np.inf
        with pytest.raises(ConfigError):
            logdet_info(z, 0.0)

    def test_too_few_rows_rejected(self):
        with pytest.raises(DimensionError):
            logdet_info(np.ones((2, 3)), 1.0)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ConfigError):
            logdet_info(np.eye(3), 0.0)
        with pytest.raises(ConfigError):
            logdet_info(np.eye(3), -1.0)


def test_import_loads_no_scipy():
    # numpy.linalg is the one LAPACK binding; a scipy import would add
    # about 300 modules and a second OpenBLAS to every process
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, subdata, subdata.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "[]"
