"""Command-line interface.

Every subcommand is a thin shell over documented library calls:

- ``select``    -> io.read_csv, bench.SelectorSpec.parse, bench._run_selector
  (the one place a spec meets its selector), io.write_selection
- ``simulate``  -> bench.run_simulation, bench.summarize, io.write_results
- ``timing``    -> bench.run_timing, io.write_timing
- ``bootstrap`` -> io.read_csv, bench.run_bootstrap, io.write_results
- ``gen-data``  -> datagen.gen_dataset, io.write_dataset

``--method`` takes selector labels as records carry them,
``name[:T=<float>][:design=<name>]`` (``bench.SelectorSpec.parse``).

Three tables state each command's rules: ``_FLAGS`` gives every flag
its converter, default and help, ``_COMMAND_FLAGS`` the flags each
command takes, and ``_REQUIRED`` the ones it cannot run without.

Options may come from a config file (``--config``, which every command
takes): flat ``key = value`` lines using the long flag names. Explicit
flags always win over the file, which wins over built-in defaults.
SUBDATA_THREADS caps the one worker pool of simulate and bootstrap.

Exit status: 0 on success with zero flagged records, 1 when any record
was flagged or a run failed, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from . import bench, datagen, io as data_io
from .errors import ConfigError, SubdataError

_CASE_ALIASES = {
    "1": "uniform01",
    "2": "mvnormal",
    "3": "truncated-mvnormal",
}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_str_list(text: str) -> tuple[str, ...]:
    items = tuple(tok.strip() for tok in str(text).split(",") if tok.strip())
    if not items:
        raise ValueError(f"expected a comma-separated list, got {text!r}")
    return items


def _parse_methods(text: str) -> tuple[str, ...]:
    """Selector labels, each checked and written as its records label it."""
    return tuple(s.label for s in bench._coerce_specs(_parse_str_list(text)))


def _parse_case(text: str) -> str:
    """A scenario name from ``datagen.CASES``, or its alias 1, 2 or 3."""
    case = _CASE_ALIASES.get(text, text)
    if case not in datagen.CASES:
        raise ValueError(f"unknown case {text!r}")
    return case


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in _parse_str_list(text))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


# one row per flag: dest -> (flag string, converter for flag and config-file
# text, default, argparse kwargs). A dict default maps command -> default
# (None for commands not listed); every command's RunConfig carries every
# row's default.
_FLAGS: dict[str, tuple[str, object, object, dict]] = {
    "input": ("--input", str, None, {"help": "input CSV path"}),
    "output": ("--output", str, None,
               {"help": "output path (CSV; JSON lands beside it)"}),
    "method": ("--method", _parse_methods,
               {"simulate": bench.SELECTOR_NAMES, "timing": bench.SELECTOR_NAMES,
                "bootstrap": tuple(s.label
                                   for s in bench.default_bootstrap_selectors())},
               {"help": "selector label name[:T=<float>][:design=<name>], "
                        "e.g. levss:T=25 or iboss:design=expanded, or a "
                        "comma-separated list where the command compares "
                        "several"}),
    "k": ("--k", int, None, {"help": "subdata size"}),
    "case": ("--case", _parse_case, "mvnormal",
             {"help": "scenario: uniform01 | mvnormal | truncated-mvnormal "
                      "(aliases 1, 2, 3)"}),
    "n": ("--n", _parse_int_list, None,
          {"help": "data size; timing accepts a comma-separated list"}),
    "p": ("--p", int, None, {"help": "covariate count"}),
    "reps": ("--reps", int, {"simulate": 100, "timing": 5},
             {"help": "repetition count"}),
    "boot": ("--boot", int, {"bootstrap": 100},
             {"help": "bootstrap replicate count"}),
    "seed": ("--seed", int, 0, {"help": "base RNG seed"}),
    "log_response": ("--log-response", _parse_bool, False,
                     {"action": argparse.BooleanOptionalAction,
                      "help": "natural-log the response at ingestion"}),
    "k_multiples": ("--k-multiples", _parse_int_list, (5, 10, 20, 30),
                    {"help": "bootstrap k grid as multiples of p, e.g. 5,10,20,30"}),
    "covariates": ("--covariates", _parse_str_list, None,
                   {"help": "comma-separated covariate column names "
                            "(default: all but the response)"}),
    "response": ("--response", str, None, {"help": "response column name"}),
    "interaction": ("--interaction", _parse_bool, False,
                    {"action": argparse.BooleanOptionalAction,
                     "help": "include pairwise interactions in the scenario"}),
}

# the flags each command takes besides --config, which every command takes
_COMMAND_FLAGS = {
    "select": ("input", "output", "method", "k", "seed", "covariates",
               "response", "log_response"),
    "simulate": ("output", "method", "k", "case", "n", "p", "reps", "seed",
                 "interaction"),
    "timing": ("output", "method", "k", "case", "n", "p", "reps", "seed"),
    "bootstrap": ("input", "output", "method", "boot", "k_multiples", "seed",
                  "covariates", "response", "log_response"),
    "gen-data": ("output", "case", "n", "p", "seed", "interaction"),
}

# the flags each command cannot run without, in the order they are checked
_REQUIRED = {
    "select": ("output", "input", "k"),
    "simulate": ("output", "n", "p", "k"),
    "timing": ("output", "n", "p", "k"),
    "bootstrap": ("output", "input", "response"),
    "gen-data": ("output", "n", "p"),
}
# commands whose worker pool SUBDATA_THREADS sizes
_POOLED = ("simulate", "bootstrap")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: command plus every effective option."""

    command: str
    output: str
    input: str | None
    method: tuple[str, ...]
    k: int | None
    case: str
    n: tuple[int, ...]
    p: int | None
    reps: int | None
    boot: int | None
    seed: int
    log_response: bool
    k_multiples: tuple[int, ...]
    covariates: tuple[str, ...] | None
    response: str | None
    interaction: bool

    def echo(self) -> dict:
        """JSON-ready mirror of the options the command takes, keyed by
        flag dest, plus the worker count where the command has a pool."""
        doc = {"command": self.command}
        for dest in _COMMAND_FLAGS[self.command]:
            value = getattr(self, dest)
            doc[dest] = list(value) if isinstance(value, tuple) else value
        if self.command in _POOLED:
            doc["workers"] = bench.resolve_workers()
        return doc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subdata",
        description="Deterministic subdata selection and benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, dests in _COMMAND_FLAGS.items():
        cp = sub.add_parser(command)
        cp.add_argument("--config", help="flat key = value config file")
        for dest in dests:
            flag, _conv, _default, kwargs = _FLAGS[dest]
            cp.add_argument(flag, dest=dest, default=None, **kwargs)
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {raw!r}"
            )
        key, _, val = line.partition("=")
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _convert(parser: argparse.ArgumentParser, conv, text: str, where: str):
    """``conv(text)``, or a usage error (exit 2) naming ``where``."""
    try:
        return conv(text)
    except ValueError as exc:
        parser.error(f"{where}: {exc}")


def _merge(command: str, args: argparse.Namespace,
           parser: argparse.ArgumentParser) -> dict:
    """Explicit flags, then config file, then the defaults in ``_FLAGS``.

    Every row of ``_FLAGS`` gets a value; the parser and the config-file
    check only let the user set the command's own flags.
    """
    dests = _COMMAND_FLAGS[command]
    file_values: dict[str, str] = {}
    if args.config:
        file_values = _load_config_file(args.config)
        # a config file sets the command's flags, but names no other config file
        unknown = sorted(k for k in file_values if k not in dests)
        if unknown:
            parser.error(f"unknown config file key(s) for {command}: {unknown}")

    merged: dict = {}
    for dest, (flag, conv, default, kwargs) in _FLAGS.items():
        raw = getattr(args, dest, None)
        if raw is not None and kwargs.get("action"):
            value = raw
        elif raw is not None:
            value = _convert(parser, conv, raw, f"argument {flag}")
        elif dest in file_values:
            value = _convert(parser, conv, file_values[dest],
                             f"config file value for {dest}")
        else:
            value = default.get(command) if isinstance(default, dict) else default
        merged[dest] = value
    return merged


def parse_cli(argv) -> RunConfig:
    """Parse argv (flags plus optional config file) into a RunConfig."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    m = _merge(command, args, parser)
    if command in ("simulate", "gen-data") and len(m["n"] or ()) > 1:
        parser.error(f"{command} takes a single --n value")
    for dest in _REQUIRED[command]:
        if m[dest] is None:
            parser.error(f"{command} requires {_FLAGS[dest][0]}")
    # refused before any work, so a long run never ends on a path it cannot write
    output = Path(m["output"])
    if not output.name or not output.parent.is_dir():
        parser.error(f"--output {m['output']!r} names no file in an existing directory")
    # the files io would write: gen-data's output itself, else the .csv and .json pair
    for target in (output,) if command == "gen-data" else data_io._json_paths(output):
        if target.is_dir():
            parser.error(f"--output {m['output']!r} would write {target}, a directory")
    # only now, after the check that reads None, do the lists default to empty
    m["method"], m["n"] = m["method"] or (), m["n"] or ()
    if command == "select" and len(m["method"]) != 1:
        parser.error("select requires exactly one --method")
    return RunConfig(command=command, **m)


def _cmd_select(rc: RunConfig) -> int:
    data = data_io.read_csv(rc.input, covariates=rc.covariates,
                            response=rc.response, log_response=rc.log_response)
    spec = bench.SelectorSpec.parse(rc.method[0])
    result = bench._run_selector(spec, data, rc.k, rc.seed)
    summary = {"rng": bench.RNG_LABEL, "config": rc.echo()}
    data_io.write_selection(result, summary, rc.output)
    return 0


def _cmd_simulate(rc: RunConfig) -> int:
    cfg = datagen.ScenarioConfig(case=rc.case, n=rc.n[0], p=rc.p, k=rc.k,
                                 seed=rc.seed, interaction=rc.interaction)
    records = bench.run_simulation(cfg, rc.method, rc.reps)
    summary = bench.summarize(records, rc.echo())
    data_io.write_results(records, summary, rc.output)
    return 1 if any(r.failed for r in records) else 0


def _cmd_timing(rc: RunConfig) -> int:
    records = bench.run_timing(rc.n, p=rc.p, k=rc.k,
                               selectors=rc.method, reps=rc.reps,
                               case=rc.case, base_seed=rc.seed)
    summary = {"rng": bench.RNG_LABEL, "config": rc.echo()}
    data_io.write_timing(records, summary, rc.output)
    return 0


def _cmd_bootstrap(rc: RunConfig) -> int:
    data = data_io.read_csv(rc.input, covariates=rc.covariates,
                            response=rc.response, log_response=rc.log_response)
    plan = bench.BootstrapPlan.from_multiples(
        data.p, multiples=rc.k_multiples, n_boot=rc.boot,
        selectors=rc.method, seed=rc.seed,
    )
    records = bench.run_bootstrap(data, plan)
    summary = bench.summarize(records, rc.echo())
    data_io.write_results(records, summary, rc.output)
    return 1 if any(r.failed for r in records) else 0


def _cmd_gen_data(rc: RunConfig) -> int:
    n = rc.n[0]
    if not n > rc.p:
        raise ConfigError(f"gen-data needs --n above --p, got --n {n}, --p {rc.p}")
    # the generators ignore k; p + 1 is the smallest value the config accepts
    cfg = datagen.ScenarioConfig(case=rc.case, n=n, p=rc.p, k=rc.p + 1,
                                 seed=rc.seed, interaction=rc.interaction)
    data = datagen.gen_dataset(cfg)
    data_io.write_dataset(data, rc.output)
    return 0


_HANDLERS = {
    "select": _cmd_select,
    "simulate": _cmd_simulate,
    "timing": _cmd_timing,
    "bootstrap": _cmd_bootstrap,
    "gen-data": _cmd_gen_data,
}


def main(argv=None) -> int:
    try:
        rc = parse_cli(sys.argv[1:] if argv is None else argv)
        return _HANDLERS[rc.command](rc)
    except SubdataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
