"""Property-based checks over randomized instances."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subdata import (
    ConfigError,
    LevssConfig,
    Resample,
    ScalingError,
    adjusted_intercept,
    condition_number,
    expand_interactions,
    fit_ols,
    leverage_scores,
    logdet_info,
    select_iboss,
    select_levss,
    select_oss,
    select_uniform,
    thin_svd,
)
from subdata.selectors import _argsort_head

from _oracles import hat_diagonal, oss_naive_greedy

# instances are derived from a drawn seed so shrinking stays meaningful
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _matrix(seed, n, p, spread=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(scale=spread, size=(n, p))


@given(seeds, st.integers(5, 60), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_leverage_bounds_and_sum(seed, n, p):
    if n <= p:
        n = p + 5
    x = _matrix(seed, n, p)
    h = leverage_scores(thin_svd(x))
    assert np.all(h >= -1e-12)
    assert np.all(h <= 1.0 + 1e-9)
    assert abs(h.sum() - p) <= 1e-6
    assert np.max(np.abs(h - hat_diagonal(x))) <= 1e-7


@given(seeds, st.integers(2, 6), st.floats(0.1, 1e6))
@settings(max_examples=40, deadline=None)
def test_condition_number_scale_invariant(seed, p, scale):
    a = _matrix(seed, p + 10, p)
    g = a.T @ a
    base = condition_number(g)
    scaled = condition_number(scale * g)
    assert np.isclose(base, scaled, rtol=1e-6)
    assert base >= 1.0


@given(seeds, st.integers(1, 4), st.floats(0.01, 100.0))
@settings(max_examples=40, deadline=None)
def test_logdet_sigma_shift(seed, q, sigma2):
    z = _matrix(seed, q + 8, q)
    base = logdet_info(z, 1.0)
    assert np.isclose(logdet_info(z, sigma2), base - q * np.log(sigma2),
                      rtol=0, atol=1e-8)


@given(seeds, st.integers(2, 5), st.integers(12, 40))
@settings(max_examples=40, deadline=None)
def test_adjusted_intercept_keeps_slopes(seed, p, n):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    fit = fit_ols(x, y)
    mx = rng.normal(size=p)
    my = float(rng.normal())
    adj = adjusted_intercept(fit, mx, my)
    assert np.array_equal(adj.slopes, fit.slopes)
    assert np.isclose(adj.intercept, my - mx @ fit.slopes, atol=1e-10)


# few distinct values, so ties and duplicates are the rule; 0.0 and -0.0 compare equal
tied_values = st.lists(
    st.sampled_from([-2.5, -1.0, -0.0, 0.0, 1e-300, 1.0, 3.0])
    | st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    max_size=80)


@given(tied_values)
@settings(max_examples=200, deadline=None)
def test_argsort_head_is_a_stable_argsort_prefix(values):
    v = np.array(values, dtype=np.float64)
    full = np.argsort(v, kind="stable")
    for m in range(v.size + 2):
        assert np.array_equal(_argsort_head(v, m), full[:m]), m


def _head_input(rng, n: int, shape: str) -> np.ndarray:
    """n values of one of the shapes _argsort_head must order exactly."""
    v = rng.normal(size=n)
    if shape == "tied":
        v = rng.integers(-3, 4, size=n).astype(np.float64)
    elif shape == "signed-zeros":
        v = np.array([-0.0, 0.0, -1.5, 2.0])[rng.integers(0, 4, size=n)]
    elif shape == "all-equal":
        v = np.full(n, 2.5)
    elif shape == "ascending":
        v.sort()
    elif shape == "descending":
        v = -np.sort(v)
    elif shape == "max-every-32":  # the sample is the maximum: one block of all
        v[::32] = v.max()
    elif shape == "min-every-32":  # the sample is the minimum: the bound widens
        v[::32] = v.min() - 1.0
    return v


@given(seeds, st.integers(1, 3000),
       st.sampled_from(["normal", "tied", "signed-zeros", "all-equal", "ascending",
                        "descending", "max-every-32", "min-every-32"]),
       st.data())
@settings(max_examples=200, deadline=None)
def test_argsort_head_equals_stable_argsort_prefix(seed, n, shape, data):
    # long enough for the sampled bound (every 32nd value) to be in play
    v = _head_input(np.random.default_rng(seed), n, shape)
    m = data.draw(st.sampled_from([1, n - 1, n, n + 7, 0, -2])
                  | st.integers(1, max(1, n - 1)), label="m")
    want = np.argsort(v, kind="stable")[:max(m, 0)]  # m <= 0: no positions
    assert np.array_equal(_argsort_head(v, m), want)


@given(seeds, st.integers(8, 300), st.integers(1, 5), st.integers(0, 2), st.booleans())
@settings(max_examples=60, deadline=None)
def test_oss_on_a_resample_equals_oss_on_its_copy(seed, n, p, decimals, more_rows):
    # few distinct base rows, rounded so that distinct rows can still be
    # interchangeable; the resample may draw more rows than the base has
    rng = np.random.default_rng(seed)
    base = np.round(rng.normal(size=(n // 3 + 1, p)), decimals)
    rows = rng.integers(0, base.shape[0], size=2 * n if more_rows else n)
    res = Resample(base, rows)
    k = int(rng.integers(2, rows.size + 2))
    try:
        want = select_oss(base[rows], k).indices
    except (ConfigError, ScalingError) as exc:
        try:
            select_oss(res, k)
        except type(exc) as got:
            assert str(got) == str(exc)
        else:
            raise AssertionError(f"no {type(exc).__name__}")
        return
    assert np.array_equal(select_oss(res, k).indices, want)


@given(seeds, st.integers(1, 4), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_selectors_return_k_distinct_valid_indices(seed, p, extra):
    rng = np.random.default_rng(seed)
    n = 30 + int(rng.integers(0, 40))
    k = 2 * p + 2 + extra
    x = rng.normal(size=(n, p))
    for res in (
        select_levss(x, LevssConfig(k=k, seed=seed)),
        select_iboss(x, k),
        select_oss(x, k),
        select_uniform(x, k, seed=seed),
    ):
        idx = res.indices
        assert idx.shape == (k,)
        assert np.unique(idx).size == k
        assert idx.min() >= 0 and idx.max() < n
        assert res.k_star >= k


@given(seeds, st.integers(6, 40), st.integers(1, 4), st.booleans())
@settings(max_examples=40, deadline=None)
def test_oss_is_prefix_consistent(seed, n, p, resample):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    if resample:  # duplicate rows, as in every bootstrap replicate
        x = x[rng.integers(0, n // 2 + 1, size=n)]
    assume(np.all(np.ptp(x, axis=0) > 0))
    longest = select_oss(x, n - 1)
    for k in range(2, n - 1):
        want = select_oss(x, k).indices
        assert np.array_equal(longest.indices[:k], want)


@given(seeds, st.integers(6, 30), st.integers(1, 4), st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_oss_matches_naive_greedy_on_rounded_resamples(seed, n, p, decimals):
    # rounding makes rows that share |z|^2 and signs without being copies
    rng = np.random.default_rng(seed)
    base = np.round(rng.normal(size=(n // 2 + 1, p)), decimals)
    x = base[rng.integers(0, base.shape[0], size=n)]
    assume(np.all(np.ptp(x, axis=0) > 0))
    k = int(rng.integers(2, n))
    assert select_oss(x, k).indices.tolist() == oss_naive_greedy(x, k)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_levss_k_star_monotone_in_threshold(seed):
    x = _matrix(seed, 800, 3)
    lo = select_levss(x, LevssConfig(k=15, threshold=5.0, seed=0)).k_star
    hi = select_levss(x, LevssConfig(k=15, threshold=20.0, seed=0)).k_star
    assert lo >= hi >= 15


@given(seeds, st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_expansion_width_and_prefix(seed, p):
    x = _matrix(seed, 8, p)
    z = expand_interactions(x)
    assert z.shape == (8, p + p * (p - 1) // 2)
    assert np.array_equal(z[:, :p], x)
    # each product column matches its generating pair
    col = p
    for a in range(p):
        for b in range(a + 1, p):
            assert np.array_equal(z[:, col], x[:, a] * x[:, b])
            col += 1


@given(seeds, st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_uniform_is_seed_deterministic(seed, p):
    x = _matrix(seed, 50, p)
    a = select_uniform(x, 10, seed=seed).indices
    b = select_uniform(x, 10, seed=seed).indices
    assert np.array_equal(a, b)
