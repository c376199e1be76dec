"""Deterministic subdata selection for large-n linear regression.

The package selects small, information-dense subsets of big regression
datasets and measures how well OLS on the subset recovers the full-data
or true coefficients. Selection methods: leverage-score ranking with an
optional condition-number stopping rule, per-covariate extreme values,
a greedy orthogonal-design discrepancy criterion, and uniform sampling
as the baseline. A benchmark harness covers repeated simulation,
selection timing, and bootstrap studies, with CSV/JSON input and output
and a command-line front end (``subdata``).
"""

from .bench import (
    BootstrapPlan,
    MetricsRecord,
    SelectorSpec,
    TimingRecord,
    default_bootstrap_selectors,
    resolve_workers,
    run_bootstrap,
    run_simulation,
    run_timing,
    summarize,
)
from .datagen import (
    CASES,
    ScenarioConfig,
    gen_covariates,
    gen_dataset,
    gen_response,
)
from .errors import (
    ConfigError,
    ContractError,
    DataFormatError,
    DimensionError,
    NumericError,
    ScalingError,
    SingularDesignError,
    SubdataError,
)
from .io import (
    read_csv,
    read_records,
    write_dataset,
    write_results,
    write_selection,
    write_timing,
)
from .linalg import (
    DataMatrix,
    SvdFactors,
    as_data_matrix,
    condition_number,
    leverage_scores,
    logdet_info,
    thin_svd,
)
from .regression import (
    LinearFit,
    adjusted_intercept,
    expand_interactions,
    expanded_column_count,
    fit_ols,
    with_intercept,
)
from .selectors import (
    IbossTails,
    LeverageRanking,
    LevssConfig,
    Resample,
    SelectionResult,
    iboss_tails,
    rank_by_leverage,
    select_iboss,
    select_levss,
    select_oss,
    select_uniform,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapPlan",
    "CASES",
    "ConfigError",
    "ContractError",
    "DataFormatError",
    "DataMatrix",
    "DimensionError",
    "IbossTails",
    "LeverageRanking",
    "LevssConfig",
    "LinearFit",
    "MetricsRecord",
    "NumericError",
    "Resample",
    "ScalingError",
    "ScenarioConfig",
    "SelectionResult",
    "SelectorSpec",
    "SingularDesignError",
    "SubdataError",
    "SvdFactors",
    "TimingRecord",
    "adjusted_intercept",
    "as_data_matrix",
    "condition_number",
    "default_bootstrap_selectors",
    "expand_interactions",
    "expanded_column_count",
    "fit_ols",
    "gen_covariates",
    "gen_dataset",
    "gen_response",
    "iboss_tails",
    "leverage_scores",
    "logdet_info",
    "rank_by_leverage",
    "read_csv",
    "read_records",
    "resolve_workers",
    "run_bootstrap",
    "run_simulation",
    "run_timing",
    "select_iboss",
    "select_levss",
    "select_oss",
    "select_uniform",
    "summarize",
    "thin_svd",
    "with_intercept",
    "write_dataset",
    "write_results",
    "write_selection",
    "write_timing",
]
