"""Spans around the public functions of ``subdata``, recorded from outside.

The program itself carries no tracing. :class:`Tracer` replaces each
traced function with a wrapper under every name by which a ``subdata``
module binds it (``subdata.selectors.thin_svd``, ``subdata.bench.select_oss``,
``subdata.io.read_csv`` as ``subdata.cli.data_io.read_csv`` sees it, ...),
because patching only the defining module would miss calls made through
a consumer's own binding. ``DataMatrix`` validation is traced by wrapping
``DataMatrix.__post_init__``. Every patched attribute is restored when the
tracer's ``with`` block ends.

A span holds its name, start, end, parent span, op id, the process CPU
seconds it used (all threads, so BLAS threads count) and a few counters
derived from the call's arguments and result. Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field

SETUP_OP = -1

# A thin_svd call took the QR fast path unless n < 2p or the returned
# singular values are spread wider than this (mirrors linalg's cutoff).
_FAST_PATH_MAX_COND = 1e5


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    cpu: float
    error: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _shape(x) -> tuple[int, int]:
    n, p = getattr(x, "values", x).shape
    return int(n), int(p)


def _observe_read_csv(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _observe_thin_svd(args, kwargs, result) -> dict:
    n, p = _shape(args[0])
    s = result.singular_values
    fast = n >= 2 * p and s[0] > 0.0 and s[-1] > s[0] / _FAST_PATH_MAX_COND
    return {"flop": 4 * n * p * p, "gesdd": int(not fast)}


def _observe_levss(args, kwargs, result) -> dict:
    k, k_star = int(args[1].k), int(result.k_star)
    return {"k": k, "k_star": k_star, "walk": k_star - k}


def _observe_oss(args, kwargs, result) -> dict:
    n, p = _shape(args[0])
    k = int(args[1] if len(args) > 1 else kwargs["k"])
    # float32 [sgn | |sgn|] matrix, n x 2p, read once per greedy step
    return {"bytes": k * n * 2 * p * 4}


# (defining module, attribute, span name, observer)
TRACED = (
    ("subdata.cli", "main", "cli.main", None),
    ("subdata.io", "read_csv", "io.read_csv", _observe_read_csv),
    ("subdata.io", "write_selection", "io.write_selection", None),
    ("subdata.io", "write_dataset", "io.write_dataset", None),
    ("subdata.datagen", "gen_covariates", "datagen.gen_covariates", None),
    ("subdata.datagen", "gen_response", "datagen.gen_response", None),
    ("subdata.linalg", "thin_svd", "linalg.thin_svd", _observe_thin_svd),
    ("subdata.linalg", "leverage_scores", "linalg.leverage_scores", None),
    ("subdata.linalg", "condition_number", "linalg.condition_number", None),
    ("subdata.linalg", "logdet_info", "linalg.logdet_info", None),
    ("subdata.selectors", "select_levss", "selectors.levss", _observe_levss),
    ("subdata.selectors", "select_iboss", "selectors.iboss", None),
    ("subdata.selectors", "select_oss", "selectors.oss", _observe_oss),
    ("subdata.selectors", "select_uniform", "selectors.uniform", None),
    ("subdata.regression", "fit_ols", "regression.fit_ols", None),
    ("subdata.bench", "run_simulation", "bench.run_simulation", None),
    ("subdata.bench", "run_bootstrap", "bench.run_bootstrap", None),
)


def subdata_modules() -> list:
    """The imported ``subdata`` package and all of its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "subdata" or name.startswith("subdata."))]


class Tracer:
    """Patch the traced functions on entry, restore them on exit.

    Set :attr:`op` before each op; spans record the op they ran in.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        from subdata.linalg import DataMatrix

        modules = subdata_modules()
        for mod_name, attr, span_name, observe in TRACED:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span_name, original, observe)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        self._patch(DataMatrix, "__post_init__",
                    self._wrap("linalg.DataMatrix", DataMatrix.__post_init__, None))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._restore:
            obj, name, original = self._restore.pop()
            setattr(obj, name, original)

    def _patch(self, obj, name: str, value) -> None:
        self._restore.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def _wrap(self, span_name: str, fn, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = Span(span_name, 0.0, 0.0, stack[-1] if stack else None,
                        self.op, 0.0)
            spans.append(span)
            stack.append(sid)
            c0 = time.process_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                span.cpu = time.process_time() - c0
                stack.pop()
            if observe is not None:
                span.extra = observe(args, kwargs, result)
            return result

        return traced

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (span, self_s) in enumerate(zip(self.spans, self.self_seconds())):
                doc = asdict(span)
                doc["id"] = sid
                doc["self"] = self_s
                fh.write(json.dumps(doc) + "\n")


# name, unit, better, span, numerator, denominator, scale, moves.
# The value is scale * sum(numerator) / denominator over the spans of the
# timed ops; denominator "op" is the op count, "setup" takes set-up spans
# with denominator 1, anything else is another summed span field.
# ``moves`` names the end-to-end metric the layer metric should move and
# the workloads where it should; elsewhere the prediction is no change.
# An empty workload tuple marks a guard, predicted unchanged everywhere.
LAYER_METRICS = (
    ("cli.main.self_s", "s", "lower", "cli.main", "self", "op", 1.0,
     ("op_p50_s", ("select-csv",))),
    ("io.read_csv.s", "s", "lower", "io.read_csv", "s", "op", 1.0,
     ("ops_per_s", ("select-csv",))),
    ("io.read_csv.mb_per_s", "MB/s", "higher", "io.read_csv", "bytes", "s", 1e-6,
     ("ops_per_s", ("select-csv",))),
    ("io.write_selection.s", "s", "lower", "io.write_selection", "s", "op", 1.0,
     ("ops_per_s", ())),
    ("io.write_dataset.s", "s", "lower", "io.write_dataset", "s", "setup", 1.0,
     ("setup_s", ("select-csv",))),
    ("datagen.gen_covariates.s", "s", "lower", "datagen.gen_covariates", "s", "op", 1.0,
     ("ops_per_s", ("simulate",))),
    ("datagen.gen_response.s", "s", "lower", "datagen.gen_response", "s", "op", 1.0,
     ("ops_per_s", ("simulate",))),
    ("linalg.DataMatrix.s", "s", "lower", "linalg.DataMatrix", "s", "op", 1.0,
     ("ops_per_s", ("select-csv", "bootstrap"))),
    ("linalg.thin_svd.s", "s", "lower", "linalg.thin_svd", "s", "op", 1.0,
     ("ops_per_s", ("bootstrap",))),
    ("linalg.thin_svd.cpu_s", "s", "lower", "linalg.thin_svd", "cpu", "op", 1.0,
     ("cpu_per_op_s", ("bootstrap",))),
    ("linalg.thin_svd.calls", "count", "lower", "linalg.thin_svd", "calls", "op", 1.0,
     ("ops_per_s", ("bootstrap",))),
    ("linalg.thin_svd.gesdd_share", "ratio", "lower", "linalg.thin_svd", "gesdd", "calls", 1.0,
     ("ops_per_s", ())),
    ("linalg.thin_svd.gflop_computed", "GFLOP", "lower", "linalg.thin_svd", "flop", "op", 1e-9,
     ("ops_per_s", ("bootstrap",))),
    ("linalg.leverage_scores.s", "s", "lower", "linalg.leverage_scores", "s", "op", 1.0,
     ("ops_per_s", ("bootstrap",))),
    ("linalg.condition_number.s", "s", "lower", "linalg.condition_number", "s", "op", 1.0,
     ("ops_per_s", ("bootstrap",))),
    ("linalg.condition_number.calls", "count", "lower", "linalg.condition_number", "calls", "op", 1.0,
     ("ops_per_s", ("bootstrap",))),
    ("linalg.logdet_info.s", "s", "lower", "linalg.logdet_info", "s", "op", 1.0,
     ("ops_per_s", ())),
    ("selectors.levss.s", "s", "lower", "selectors.levss", "s", "op", 1.0,
     ("ops_per_s", ("bootstrap",))),
    ("selectors.levss.self_s", "s", "lower", "selectors.levss", "self", "op", 1.0,
     ("ops_per_s", ("bootstrap",))),
    ("selectors.levss.walk_rows", "rows", "lower", "selectors.levss", "walk", "op", 1.0,
     ("ops_per_s", ("bootstrap",))),
    ("selectors.levss.pool_use", "ratio", "higher", "selectors.levss", "k", "k_star", 1.0,
     ("ops_per_s", ("bootstrap",))),
    ("selectors.iboss.s", "s", "lower", "selectors.iboss", "s", "op", 1.0,
     ("ops_per_s", ())),
    ("selectors.oss.s", "s", "lower", "selectors.oss", "s", "op", 1.0,
     ("ops_per_s", ("simulate", "bootstrap"))),
    ("selectors.oss.cpu_s", "s", "lower", "selectors.oss", "cpu", "op", 1.0,
     ("cpu_per_op_s", ("simulate", "bootstrap"))),
    ("selectors.oss.gb_computed", "GB", "lower", "selectors.oss", "bytes", "op", 1e-9,
     ("ops_per_s", ("simulate", "bootstrap"))),
    ("selectors.oss.gb_per_s", "GB/s", "higher", "selectors.oss", "bytes", "s", 1e-9,
     ("ops_per_s", ("simulate", "bootstrap"))),
    ("selectors.uniform.s", "s", "lower", "selectors.uniform", "s", "op", 1.0,
     ("ops_per_s", ())),
    ("regression.fit_ols.s", "s", "lower", "regression.fit_ols", "s", "op", 1.0,
     ("ops_per_s", ())),
    ("regression.fit_ols.calls", "count", "lower", "regression.fit_ols", "calls", "op", 1.0,
     ("ops_per_s", ())),
    ("bench.run_simulation.self_s", "s", "lower", "bench.run_simulation", "self", "op", 1.0,
     ("ops_per_s", ("simulate",))),
    ("bench.run_bootstrap.self_s", "s", "lower", "bench.run_bootstrap", "self", "op", 1.0,
     ("ops_per_s", ("bootstrap",))),
)


def layer_metrics(tracer: Tracer, n_ops: int) -> tuple[dict, dict]:
    """Per-layer values over the traced ops, and why any layer is absent."""
    totals: dict[tuple[str, bool], Counter] = {}
    for span, own in zip(tracer.spans, tracer.self_seconds()):
        c = totals.setdefault((span.name, span.op == SETUP_OP), Counter())
        c["s"] += span.seconds
        c["self"] += own
        c["cpu"] += span.cpu
        c["calls"] += 1
        c.update(span.extra)
    values, absent = {}, {}
    for name, _unit, _better, span, num, den, scale, _moves in LAYER_METRICS:
        in_setup = den == "setup"
        c = totals.get((span, in_setup), Counter())
        d = 1 if in_setup else n_ops if den == "op" else c[den]
        values[name] = scale * c[num] / d if d else 0.0
        if not c["calls"]:
            absent[name] = ("called only in set-up on this workload"
                            if (span, True) in totals else
                            "never called on this workload")
    return values, absent
