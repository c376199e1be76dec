"""Command-line surface: parsing, precedence, exit codes, end-to-end runs."""

import csv
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from subdata import (DataMatrix, LevssConfig, SelectorSpec, read_csv, select_levss,
                     write_dataset)
from subdata import cli
from subdata.bench import _run_selector
from subdata.cli import main, parse_cli

# one argv per command that sets every flag the command requires
_COMPLETE_ARGV = {
    "select": "select --input d.csv --method levss --k 5 --output o.csv",
    "simulate": "simulate --n 100 --p 2 --k 10 --output o.csv",
    "timing": "timing --n 100 --p 2 --k 10 --output o.csv",
    "bootstrap": "bootstrap --input d.csv --response y --output o.csv",
    "gen-data": "gen-data --n 100 --p 2 --output o.csv",
}


class TestParse:
    def test_simulate_defaults(self):
        rc = parse_cli(
            ["simulate", "--n", "10000", "--p", "10", "--k", "200",
             "--output", "o.csv"]
        )
        assert rc.command == "simulate"
        assert rc.method == ("levss", "iboss", "oss", "uniform")
        assert rc.case == "mvnormal"
        assert rc.reps == 100
        assert rc.seed == 0
        assert rc.n == (10000,)

    def test_case_aliases(self):
        for alias, want in [
            ("1", "uniform01"),
            ("2", "mvnormal"),
            ("3", "truncated-mvnormal"),
            ("mvnormal", "mvnormal"),
        ]:
            rc = parse_cli(
                ["simulate", "--case", alias, "--n", "100", "--p", "2",
                 "--k", "10", "--output", "o.csv"]
            )
            assert rc.case == want, alias

    def test_method_list(self):
        rc = parse_cli(
            ["simulate", "--method", "levss,uniform", "--n", "100",
             "--p", "2", "--k", "10", "--output", "o.csv"]
        )
        assert rc.method == ("levss", "uniform")

    def test_unknown_method_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(
                ["simulate", "--method", "lev", "--n", "100", "--p", "2",
                 "--k", "10", "--output", "o.csv"]
            )
        assert exc.value.code == 2

    def test_unknown_case_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(
                ["simulate", "--case", "cauchy", "--n", "100", "--p", "2",
                 "--k", "10", "--output", "o.csv"]
            )
        assert exc.value.code == 2

    def test_missing_required_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(["simulate", "--n", "100", "--output", "o.csv"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            parse_cli(["select", "--k", "5", "--output", "o.csv"])  # no input
        with pytest.raises(SystemExit):
            parse_cli(["bootstrap", "--input", "d.csv", "--output", "o.csv"])

    @pytest.mark.parametrize("command, flag, config_line, message", [
        *[(command, flag, None, f"{command} requires {flag}")
          for command, flags in [("select", "--output --input --k"),
                                 ("simulate", "--output --n --p --k"),
                                 ("timing", "--output --n --p --k"),
                                 ("bootstrap", "--output --input --response"),
                                 ("gen-data", "--output --n --p")]
          for flag in flags.split()],
        ("select", "--method", None, "select requires exactly one --method"),
        ("simulate", "--n", "n = 100", None),
    ])
    def test_required_flags(self, command, flag, config_line, message, tmp_path,
                            capsys):
        # drop one flag from a complete argv; a config line may stand in for it
        complete = shlex.split(_COMPLETE_ARGV[command])
        argv = list(complete)
        at = argv.index(flag)
        del argv[at:at + 2]
        if config_line:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config_line + "\n")
            argv += ["--config", str(cfg)]
        if message is None:
            assert parse_cli(argv) == parse_cli(complete)
            return
        with pytest.raises(SystemExit) as exc:
            parse_cli(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unknown_case_names_its_source(self, source, tmp_path, capsys):
        argv = shlex.split(_COMPLETE_ARGV["simulate"])
        if source == "flag":
            argv += ["--case", "cauchy"]
            where = "argument --case"
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("case = cauchy\n")
            argv += ["--config", str(cfg)]
            where = "config file value for case"
        with pytest.raises(SystemExit) as exc:
            parse_cli(argv)
        assert exc.value.code == 2
        assert f"{where}: unknown case 'cauchy'" in capsys.readouterr().err

    def test_select_needs_exactly_one_method(self):
        with pytest.raises(SystemExit):
            parse_cli(
                ["select", "--method", "levss,oss", "--k", "5",
                 "--input", "d.csv", "--output", "o.csv"]
            )

    def test_threshold_bound(self):
        with pytest.raises(SystemExit):
            parse_cli(
                ["simulate", "--method", "levss:T=0.5", "--n", "100", "--p", "2",
                 "--k", "10", "--output", "o.csv"]
            )
        rc = parse_cli(
            ["simulate", "--method", "levss:T=inf", "--n", "100", "--p", "2",
             "--k", "10", "--output", "o.csv"]
        )
        assert rc.method == ("levss:T=inf",)
        assert SelectorSpec.parse(rc.method[0]).threshold == np.inf

    def test_simulate_rejects_multiple_n(self):
        with pytest.raises(SystemExit):
            parse_cli(
                ["simulate", "--n", "100,200", "--p", "2", "--k", "10",
                 "--output", "o.csv"]
            )

    def test_timing_takes_n_grid(self):
        rc = parse_cli(
            ["timing", "--n", "1000,10000,100000", "--p", "5", "--k", "50",
             "--output", "t.csv"]
        )
        assert rc.n == (1000, 10000, 100000)
        assert rc.reps == 5

    def test_echo_round_trips_through_json(self):
        rc = parse_cli(
            ["bootstrap", "--input", "d.csv", "--output", "o.csv",
             "--response", "y", "--boot", "17", "--k-multiples", "5,10",
             "--log-response"]
        )
        echo = rc.echo()
        assert json.dumps(echo)  # JSON-serializable
        assert echo["boot"] == 17
        assert echo["k_multiples"] == [5, 10]
        assert echo["log_response"] is True

    @pytest.mark.parametrize("argv, keys", [
        (["select", "--input", "d.csv", "--method", "levss", "--k", "10",
          "--output", "o.csv"],
         "input output method k seed covariates response log_response"),
        (["simulate", "--n", "100", "--p", "2", "--k", "10", "--output", "o.csv"],
         "output method k case n p reps seed interaction workers"),
        (["timing", "--n", "100", "--p", "2", "--k", "10", "--output", "o.csv"],
         "output method k case n p reps seed"),
        (["bootstrap", "--input", "d.csv", "--response", "y", "--output", "o.csv"],
         "input output method boot k_multiples seed covariates response "
         "log_response workers"),
        (["gen-data", "--n", "100", "--p", "2", "--output", "o.csv"],
         "output case n p seed interaction"),
    ], ids=["select", "simulate", "timing", "bootstrap", "gen-data"])
    def test_echo_holds_only_the_command_options(self, argv, keys):
        # workers only where SUBDATA_THREADS sizes a pool
        assert set(parse_cli(argv).echo()) == {"command", *keys.split()}

    @pytest.mark.parametrize("argv", [
        ["bootstrap", "--input", "d.csv", "--response", "y",
         "--method", "levss:T=40,iboss:T=40", "--output", "o.csv"],
        ["select", "--method", "iboss:T=30", "--k", "20",
         "--input", "d.csv", "--output", "o.csv"],
        ["simulate", "--method", "levss,oss:design=expanded",
         "--n", "100", "--p", "2", "--k", "10", "--output", "o.csv"],
        ["gen-data", "--n", "100", "--p", "2", "--k", "10", "--output", "o.csv"],
        ["simulate", "--method", "levss,iboss", "--threshold", "10",
         "--n", "100", "--p", "2", "--k", "10", "--output", "o.csv"],
        ["simulate", "--method", "levss,iboss", "--iboss-design", "expanded",
         "--n", "100", "--p", "2", "--k", "10", "--output", "o.csv"],
    ], ids=["bootstrap-ladder-threshold", "select-iboss-threshold",
            "expanded-without-iboss", "gen-data-k", "threshold-flag-removed",
            "iboss-design-flag-removed"])
    def test_flag_that_cannot_apply_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse_cli(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("label", [
        "levss:T=", "levss:T=high", "levss:T=-inf", "levss:X=1",
        "levss:T=3:T=4", "levss:design=expanded", "levss:T=1_0", "levss:T= 25",
    ])
    def test_malformed_label_exits_2(self, label, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_cli(
                ["simulate", "--method", f"iboss,{label}", "--n", "100",
                 "--p", "2", "--k", "10", "--output", "o.csv"]
            )
        assert exc.value.code == 2
        assert repr(label) in capsys.readouterr().err

    def test_labels_are_written_as_records_write_them(self):
        rc = parse_cli(
            ["simulate", "--method", "levss:design=intercept:T=10.0,levss:T=inf",
             "--n", "100", "--p", "2", "--k", "10", "--output", "o.csv"]
        )
        assert rc.method == ("levss:T=10:design=intercept", "levss:T=inf")

    @pytest.mark.parametrize("methods", [
        "levss,levss", "levss,levss:design=main", "levss:T=25,levss:T=25.0",
    ])
    def test_repeated_label_exits_2(self, methods):
        with pytest.raises(SystemExit) as exc:
            parse_cli(
                ["simulate", "--method", methods, "--n", "100", "--p", "2",
                 "--k", "10", "--output", "o.csv"]
            )
        assert exc.value.code == 2

    def test_bootstrap_default_method_is_the_ladder(self):
        rc = parse_cli(
            ["bootstrap", "--input", "d.csv", "--response", "y",
             "--output", "o.csv"]
        )
        assert rc.echo()["method"] == [
            "levss:T=25", "levss:T=20", "levss:T=15", "levss", "iboss", "oss"
        ]

    def test_interaction_flag(self):
        rc = parse_cli(
            ["simulate", "--interaction", "--n", "100", "--p", "3",
             "--k", "20", "--output", "o.csv"]
        )
        assert rc.interaction is True


class TestMalformedFlagValues:
    """Flag text a converter rejects is a usage error, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--k", "abc", "--n", "100", "--p", "2", "--output", "o.csv"],
        ["simulate", "--n", "1e3", "--p", "2", "--k", "10", "--output", "o.csv"],
        ["simulate", "--method", "levss:T=high", "--n", "100", "--p", "2",
         "--k", "10", "--output", "o.csv"],
        ["bootstrap", "--input", "d.csv", "--response", "y", "--boot", "x",
         "--output", "o.csv"],
    ])
    def test_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_negative_infinite_threshold_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--method=levss:T=-inf", "--n", "100", "--p", "2",
                  "--k", "10", "--output", "o.csv"])
        assert exc.value.code == 2

    def test_config_file_value_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--n", "100", "--p", "2",
                  "--output", "o.csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "", "--p", "2", "--k", "10", "--output", "o.csv"],
        ["simulate", "--n", ",", "--p", "2", "--k", "10", "--output", "o.csv"],
        ["gen-data", "--n", "", "--p", "2", "--output", "o.csv"],
        ["gen-data", "--n", " , ", "--p", "2", "--output", "o.csv"],
        ["timing", "--n", ",", "--p", "2", "--k", "10", "--output", "t.csv"],
        ["bootstrap", "--input", "d.csv", "--response", "y",
         "--k-multiples", "", "--output", "o.csv"],
        ["select", "--method", "levss", "--k", "5", "--input", "d.csv",
         "--covariates", ",", "--output", "o.csv"],
        ["simulate", "--method", "", "--n", "100", "--p", "2", "--k", "10",
         "--output", "o.csv"],
    ])
    def test_empty_list_exits_2(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not (tmp_path / "o.csv").exists()


class TestConfigFile:
    def test_flags_beat_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 100\nreps = 7\ncase = 1\n")
        rc = parse_cli(
            ["simulate", "--config", str(cfg), "--n", "500", "--p", "2",
             "--k", "200", "--output", "o.csv"]
        )
        assert rc.k == 200  # flag wins
        assert rc.reps == 7  # file beats default
        assert rc.case == "uniform01"

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# study layout\n\nreps = 3\n")
        rc = parse_cli(
            ["simulate", "--config", str(cfg), "--n", "100", "--p", "2",
             "--k", "10", "--output", "o.csv"]
        )
        assert rc.reps == 3

    def test_hyphenated_keys_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k-multiples = 5,10\nlog-response = true\n")
        rc = parse_cli(
            ["bootstrap", "--config", str(cfg), "--input", "d.csv",
             "--response", "y", "--output", "o.csv"]
        )
        assert rc.k_multiples == (5, 10)
        assert rc.log_response is True

    def test_method_labels(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = levss:T=25, iboss:design=expanded\n")
        rc = parse_cli(
            ["simulate", "--config", str(cfg), "--n", "100", "--p", "2",
             "--k", "10", "--output", "o.csv"]
        )
        assert rc.method == ("levss:T=25", "iboss:design=expanded")

    @pytest.mark.parametrize("line", [
        "threshold = 10", "iboss_design = expanded", "iboss-design = expanded",
    ])
    def test_removed_selector_keys_exit_2(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            parse_cli(
                ["simulate", "--config", str(cfg), "--n", "100", "--p", "2",
                 "--k", "10", "--output", "o.csv"]
            )
        assert exc.value.code == 2

    def test_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("config = nowhere.cfg\nk = 3\n")
        with pytest.raises(SystemExit) as exc:
            parse_cli(["select", "--config", str(cfg), "--input", "d.csv",
                       "--method", "levss", "--output", "o.csv"])
        assert exc.value.code == 2
        assert "unknown config file key(s) for select: ['config']" in \
            capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bootstrap_reps = 9\n")
        with pytest.raises(SystemExit) as exc:
            parse_cli(
                ["simulate", "--config", str(cfg), "--n", "100", "--p", "2",
                 "--k", "10", "--output", "o.csv"]
            )
        assert exc.value.code == 2

    def test_malformed_line_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("reps 3\n")
        assert main(
            ["simulate", "--config", str(cfg), "--n", "100", "--p", "2",
             "--k", "10", "--output", "o.csv"]
        ) == 2

    @pytest.mark.parametrize("text, want", [("off", False), ("on", True)])
    def test_interaction_words(self, tmp_path, text, want):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"interaction = {text}\n")
        rc = parse_cli(["simulate", "--config", str(cfg), "--n", "100", "--p", "2",
                        "--k", "10", "--output", "o.csv"])
        assert rc.interaction is want

    def test_interaction_not_a_boolean_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("interaction = maybe\n")
        with pytest.raises(SystemExit) as exc:
            parse_cli(["simulate", "--config", str(cfg), "--n", "100", "--p", "2",
                       "--k", "10", "--output", "o.csv"])
        assert exc.value.code == 2
        assert "not a boolean: 'maybe'" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self):
        assert main(
            ["simulate", "--config", "/nonexistent.cfg", "--n", "100",
             "--p", "2", "--k", "10", "--output", "o.csv"]
        ) == 2


def _rows_without_elapsed(csv_path) -> list[dict]:
    """A records CSV's rows, the elapsed columns dropped."""
    with open(csv_path, newline="") as fh:
        return [{key: v for key, v in row.items() if not key.startswith("elapsed")}
                for row in csv.DictReader(fh)]


class TestEndToEnd:
    def test_gen_data_then_select(self, tmp_path):
        data_path = tmp_path / "d.csv"
        out_path = tmp_path / "sel.csv"
        assert main(
            ["gen-data", "--n", "120", "--p", "3", "--seed", "5",
             "--output", str(data_path)]
        ) == 0
        assert data_path.read_text().splitlines()[0] == "x1,x2,x3,y"
        assert main(
            ["select", "--method", "levss", "--k", "10",
             "--input", str(data_path), "--response", "y",
             "--output", str(out_path)]
        ) == 0
        lines = out_path.read_text().splitlines()
        got = [int(v) for v in lines[1:]]
        want = select_levss(
            read_csv(data_path, response="y"), LevssConfig(k=10, seed=0)
        )
        assert got == want.indices.tolist()
        doc = json.loads((tmp_path / "sel.json").read_text())
        assert doc["config"]["method"] == ["levss"]
        assert doc["k_star"] == 10

    def test_select_each_method(self, tmp_path):
        data_path = tmp_path / "d.csv"
        main(["gen-data", "--n", "80", "--p", "2", "--output", str(data_path)])
        for method in ("levss", "iboss", "oss", "uniform"):
            out = tmp_path / f"{method}.csv"
            assert main(
                ["select", "--method", method, "--k", "8",
                 "--input", str(data_path), "--response", "y",
                 "--output", str(out)]
            ) == 0
            assert len(out.read_text().splitlines()) == 9

    @pytest.mark.parametrize("label, threshold", [("levss:T=25", 25.0),
                                                  ("levss:T=inf", math.inf)],
                             ids=["T=25", "T=inf"])
    def test_select_writes_a_singular_block_as_null(self, tmp_path, label, threshold):
        # 0/1 covariates: the walk meets singular blocks, whose condition
        # number is +inf; JSON has no token for it
        data_path, out = tmp_path / "d.csv", tmp_path / "sel.csv"
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, size=(2000, 3)).astype(float)
        write_dataset(DataMatrix(x, x.sum(axis=1) + rng.normal(size=2000)), data_path)
        assert main(["select", "--method", label, "--k", "8", "--input", str(data_path),
                     "--response", "y", "--output", str(out)]) == 0

        def refuse(token):
            raise ValueError(f"not JSON: {token}")
        doc = json.loads((tmp_path / "sel.json").read_text(), parse_constant=refuse)
        want = select_levss(read_csv(data_path, response="y"),
                            LevssConfig(k=8, threshold=threshold, seed=0))
        assert doc["k_star"] == want.k_star
        trace = want.condition_trace
        assert np.isinf(trace).any()
        assert doc["condition_trace"] == [None if np.isinf(v) else float(v) for v in trace]

    @pytest.mark.parametrize("flags, spec", [
        (["--method", "levss"], SelectorSpec("levss")),
        (["--method", "levss:T=10"], SelectorSpec("levss", threshold=10.0)),
        (["--method", "iboss"], SelectorSpec("iboss")),
        (["--method", "iboss:design=expanded"],
         SelectorSpec("iboss", design="expanded")),
        (["--method", "oss"], SelectorSpec("oss")),
        (["--method", "uniform"], SelectorSpec("uniform")),
        (["--method", "levss:design=intercept"],
         SelectorSpec("levss", design="intercept")),
        (["--method", "levss:T=10:design=intercept"],
         SelectorSpec("levss", threshold=10.0, design="intercept")),
    ])
    def test_select_matches_library_dispatch(self, tmp_path, flags, spec):
        data_path = tmp_path / "d.csv"
        out = tmp_path / "sel.csv"
        main(["gen-data", "--n", "300", "--p", "3", "--seed", "8",
              "--output", str(data_path)])
        assert main(
            ["select", *flags, "--k", "24", "--seed", "5",
             "--input", str(data_path), "--response", "y",
             "--output", str(out)]
        ) == 0
        got = [int(v) for v in out.read_text().splitlines()[1:]]
        want = _run_selector(spec, read_csv(data_path, response="y"), 24, seed=5)
        assert got == want.indices.tolist()

    def test_simulate_writes_records_and_summary(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(
            ["simulate", "--n", "300", "--p", "2", "--k", "30",
             "--reps", "2", "--method", "levss,uniform",
             "--output", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 2 reps x 2 selectors
        doc = json.loads((tmp_path / "sim.json").read_text())
        assert doc["records"] == 4
        assert doc["config"]["n"] == [300]

    def test_simulate_flagged_failure_exits_1(self, tmp_path):
        out = tmp_path / "sim.csv"
        with pytest.warns(UserWarning):
            code = main(
                ["simulate", "--n", "40", "--p", "2", "--k", "40",
                 "--reps", "1", "--method", "levss", "--output", str(out)]
            )
        assert code == 1
        assert out.exists()  # results still written for inspection

    def test_timing_grid(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(
            ["timing", "--n", "150,300", "--p", "2", "--k", "10",
             "--reps", "1", "--method", "levss,iboss", "--output", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 2 n x 2 selectors

    def test_bootstrap_roundtrip(self, tmp_path):
        data_path = tmp_path / "d.csv"
        out = tmp_path / "b.csv"
        main(
            ["gen-data", "--n", "200", "--p", "2", "--case", "2",
             "--seed", "3", "--output", str(data_path)]
        )
        assert main(
            ["bootstrap", "--input", str(data_path), "--response", "y",
             "--boot", "2", "--output", str(out)]
        ) == 0
        doc = json.loads((tmp_path / "b.json").read_text())
        selectors = {g["selector"] for g in doc["groups"]}
        assert selectors == {
            "levss:T=25", "levss:T=20", "levss:T=15", "levss", "iboss", "oss"
        }
        ks = {g["k"] for g in doc["groups"]}
        assert ks == {10, 20, 40, 60}

    def test_bootstrap_default_equals_ladder_labels(self, tmp_path):
        data_path = tmp_path / "d.csv"
        main(["gen-data", "--n", "200", "--p", "2", "--seed", "4",
              "--output", str(data_path)])
        runs = {}
        for name, flags in [
            ("default", []),
            ("labels", ["--method",
                        "levss:T=25,levss:T=20,levss:T=15,levss,iboss,oss"]),
        ]:
            out = tmp_path / f"{name}.csv"
            assert main(
                ["bootstrap", "--input", str(data_path), "--response", "y",
                 "--boot", "2", "--k-multiples", "5,10", *flags,
                 "--output", str(out)]
            ) == 0
            runs[name] = _rows_without_elapsed(out)
        assert len(runs["default"]) == 2 * 2 * 6
        assert runs["default"] == runs["labels"]

    def test_bootstrap_pool_writes_the_serial_csv(self, tmp_path, monkeypatch):
        data_path = tmp_path / "d.csv"
        main(["gen-data", "--n", "300", "--p", "2", "--seed", "5",
              "--output", str(data_path)])
        runs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("SUBDATA_THREADS", threads)
            out = tmp_path / f"threads{threads}.csv"
            assert main(
                ["bootstrap", "--input", str(data_path), "--response", "y",
                 "--boot", "3", "--k-multiples", "5,10", "--output", str(out)]
            ) == 0
            runs[threads] = _rows_without_elapsed(out)
        assert len(runs["1"]) == 3 * 2 * 6
        assert runs["1"] == runs["2"]

    def test_bootstrap_single_method(self, tmp_path):
        data_path = tmp_path / "d.csv"
        out = tmp_path / "b.csv"
        main(["gen-data", "--n", "150", "--p", "2", "--output", str(data_path)])
        assert main(
            ["bootstrap", "--input", str(data_path), "--response", "y",
             "--boot", "1", "--method", "uniform", "--k-multiples", "5",
             "--output", str(out)]
        ) == 0
        doc = json.loads((tmp_path / "b.json").read_text())
        assert {g["selector"] for g in doc["groups"]} == {"uniform"}

    def test_bootstrap_explicit_method_list(self, tmp_path):
        data_path = tmp_path / "d.csv"
        out = tmp_path / "b.csv"
        main(["gen-data", "--n", "150", "--p", "2", "--output", str(data_path)])
        assert main(
            ["bootstrap", "--input", str(data_path), "--response", "y",
             "--boot", "1", "--method", "levss,iboss,oss,uniform",
             "--k-multiples", "5", "--output", str(out)]
        ) == 0
        doc = json.loads((tmp_path / "b.json").read_text())
        assert {g["selector"] for g in doc["groups"]} == {
            "levss", "iboss", "oss", "uniform"
        }

    def test_missing_input_file_exits_1(self, tmp_path):
        code = main(
            ["select", "--method", "levss", "--k", "5",
             "--input", str(tmp_path / "absent.csv"),
             "--output", str(tmp_path / "o.csv")]
        )
        assert code == 1

    def test_undecodable_input_exits_1(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_bytes(b"x1,x\xe92\n1,2\n3,4\n")
        code = main(["select", "--method", "uniform", "--k", "1",
                     "--input", str(f), "--output", str(tmp_path / "o.csv")])
        assert code == 1
        assert "d.csv" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()


class TestRuntimeConfigErrors:
    """A ConfigError raised after parsing is a configuration error: exit 2."""

    @pytest.mark.parametrize("argv, env", [
        (["select", "--method", "levss", "--k", "300", "--input", "d.csv",
          "--output", "o.csv"], {}),
        (["select", "--method", "oss", "--k", "1", "--input", "d.csv",
          "--output", "o.csv"], {}),
        (["simulate", "--n", "100", "--p", "2", "--k", "10", "--reps", "1",
          "--method", "uniform", "--output", "o.csv"], {"SUBDATA_THREADS": "abc"}),
        (["timing", "--n", "10", "--p", "2", "--k", "20", "--reps", "1",
          "--method", "levss", "--output", "o.csv"], {}),
        (["simulate", "--n", "100", "--p", "2", "--k", "10", "--reps", "1",
          "--method", "uniform", "--seed", "-1", "--output", "o.csv"], {}),
        (["gen-data", "--n", "100", "--p", "2", "--seed", "-1", "--output", "o.csv"], {}),
        (["bootstrap", "--input", "d.csv", "--response", "y", "--boot", "1",
          "--seed", "-1", "--output", "o.csv"], {}),
        (["select", "--method", "uniform", "--k", "20", "--seed", "-1",
          "--input", "d.csv", "--response", "y", "--output", "o.csv"], {}),
        (["bootstrap", "--input", "d.csv", "--response", "y", "--boot", "2",
          "--k-multiples", "5,5", "--output", "o.csv"], {}),
        (["timing", "--n", "300,300", "--p", "2", "--k", "20", "--reps", "1",
          "--method", "uniform", "--output", "o.csv"], {}),
    ], ids=["k-equals-n", "oss-k-1", "threads-env", "timing-n-below-k",
            "simulate-negative-seed", "gen-data-negative-seed",
            "bootstrap-negative-seed", "select-negative-seed",
            "bootstrap-repeated-k", "timing-repeated-n"])
    def test_exits_2(self, argv, env, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gen-data", "--n", "300", "--p", "2", "--output", "d.csv"]) == 0
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert main(argv) == 2
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv, column", [
        (["select", "--method", "levss", "--k", "20", "--covariates", "x1,x1"], "'x1'"),
        (["bootstrap", "--response", "y", "--boot", "1",
          "--covariates", "x1,x1,x2"], "'x1'"),
        (["bootstrap", "--response", "y", "--boot", "1",
          "--covariates", "x1,x2,y"], "'y'"),
    ], ids=["select-twice", "bootstrap-twice", "bootstrap-response-as-covariate"])
    def test_column_named_twice_exits_2(self, argv, column, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["gen-data", "--n", "300", "--p", "2", "--output", "d.csv"]) == 0
        capsys.readouterr()
        assert main(argv + ["--input", "d.csv", "--output", "o.csv"]) == 2
        assert column in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["select", "--method", "levss", "--k", "20", "--log-response"],
        ["select", "--method", "levss", "--k", "20", "--covariates", "x1,x1"],
        ["bootstrap", "--response", "y", "--boot", "1", "--covariates", "x1,y"],
    ], ids=["log-without-response", "select-twice", "response-as-covariate"])
    @pytest.mark.parametrize("content", [None, b"x1,x2,y\n1,2,\xff\n"],
                             ids=["missing-input", "undecodable-input"])
    def test_argument_errors_exit_2_before_the_input_is_read(self, argv, content,
                                                            tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        if content is not None:
            (tmp_path / "d.csv").write_bytes(content)
        assert main(argv + ["--input", "d.csv", "--output", "o.csv"]) == 2
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["select", "--method", "levss", "--k", "10", "--input", "d.csv",
         "--response", "y"],
        ["timing", "--n", "100", "--p", "2", "--k", "10", "--reps", "1",
         "--method", "uniform"],
    ], ids=["select", "timing"])
    def test_threads_env_is_read_only_where_a_pool_runs(self, argv, tmp_path,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gen-data", "--n", "300", "--p", "2", "--output", "d.csv"]) == 0
        monkeypatch.setenv("SUBDATA_THREADS", "abc")
        assert main(argv + ["--output", "o.csv"]) == 0

    @pytest.mark.parametrize("n", ["3", "5"])
    def test_gen_data_n_not_above_p_names_the_flags(self, n, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["gen-data", "--n", n, "--p", "5", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--n {n}" in err and "--p 5" in err and "k=" not in err
        assert not out.exists()

    @pytest.mark.parametrize("rows", [
        [b"1.25,2.5"] * 1499 + [b"1.25,\xe9.5"] + [b"1.25,2.5"] * 500 + [b""],
        [b"1.25,2.5"] * 20 + [b"1.25,2.\xc3"],
    ], ids=["past-the-first-8-KiB", "cut-short-at-the-end"])
    def test_header_error_before_an_undecodable_byte_past_the_header_read(
            self, rows, tmp_path, capsys):
        # the header read decodes the first 8 KiB of text and holds back a
        # character cut short at its end; the parse of the body meets such a
        # byte after the header's own checks
        f = tmp_path / "d.csv"
        f.write_bytes(b"\n".join([b"a,b", *rows]))
        argv = ["select", "--method", "uniform", "--k", "10", "--input", str(f),
                "--output", str(tmp_path / "o.csv")]
        assert main(argv + ["--response", "z"]) == 2
        assert "response column 'z' not in header" in capsys.readouterr().err
        assert main(argv + ["--response", "b"]) == 1
        assert f"cannot read {f}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("k", ["2", "8"])
    def test_levss_on_fewer_rows_than_columns_exits_2(self, k, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        data.write_text("x1,x2,x3,x4,x5\n1,2,3,4,5\n2,1,4,3,6\n0,5,1,2,2\n")
        out = tmp_path / "o.csv"
        argv = ["select", "--method", "levss", "--k", k, "--input", str(data),
                "--output", str(out)]
        assert main(argv) == 2
        assert "leverage selection needs" in capsys.readouterr().err
        assert not out.exists()


class TestOutputPath:
    """An --output that names no file in an existing directory is a usage
    error found before any work; one that cannot be written is exit 1."""

    @pytest.mark.parametrize("output", ["", ".", "absent/o.csv"])
    @pytest.mark.parametrize("argv, module, work", [
        (["simulate", "--n", "100", "--p", "2", "--k", "10", "--reps", "1"],
         cli.bench, "run_simulation"),
        (["gen-data", "--n", "100", "--p", "2"], cli.datagen, "gen_dataset"),
        (["bootstrap", "--input", "d.csv", "--response", "y", "--boot", "1"],
         cli.data_io, "read_csv"),
    ], ids=["simulate", "gen-data", "bootstrap"])
    def test_exits_2_before_any_work(self, argv, module, work, output, tmp_path,
                                     monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} ran before --output was checked")

        monkeypatch.setattr(module, work, refuse)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", output])
        assert exc.value.code == 2
        assert f"--output {output!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, output, taken", [
        ("simulate", "d", "d.csv"),
        ("simulate", "d.csv", "d.json"),
        ("bootstrap", "d", "d.json"),
        ("bootstrap", "d.json", "d.csv"),
        ("gen-data", "d", "d"),
        ("gen-data", "d.csv", "d.csv"),
    ])
    def test_directory_target_exits_2_before_any_work(
            self, command, output, taken, tmp_path, monkeypatch, capsys):
        # gen-data writes the output itself, every other command the .csv
        # and .json pair that io names after it
        argv, module, work = {
            "simulate": (["simulate", "--n", "100", "--p", "2", "--k", "10",
                          "--reps", "1"], cli.bench, "run_simulation"),
            "bootstrap": (["bootstrap", "--input", "in.csv", "--response", "y",
                           "--boot", "1"], cli.data_io, "read_csv"),
            "gen-data": (["gen-data", "--n", "100", "--p", "2"],
                         cli.datagen, "gen_dataset"),
        }[command]
        monkeypatch.chdir(tmp_path)
        (tmp_path / taken).mkdir()

        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} ran before --output was checked")

        monkeypatch.setattr(module, work, refuse)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", output])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--output {output!r} would write {taken}, a directory" in err
        assert [path.name for path in tmp_path.iterdir()] == [taken]

    @pytest.mark.parametrize("argv, module, work, output", [
        (["gen-data", "--n", "100", "--p", "2"], cli.datagen, "gen_dataset", "d"),
        (["simulate", "--n", "100", "--p", "2", "--k", "10", "--reps", "1",
          "--method", "uniform"], cli.bench, "run_simulation", "d.csv"),
    ], ids=["gen-data", "simulate"])
    def test_unwritable_output_exits_1(self, argv, module, work, output, tmp_path,
                                       monkeypatch, capsys):
        # the output file's name is taken by a directory made during the
        # work, after parse_cli checked it
        real = getattr(module, work)

        def taking_the_name(*args, **kwargs):
            (tmp_path / output).mkdir()
            return real(*args, **kwargs)

        monkeypatch.setattr(module, work, taking_the_name)
        assert main(argv + ["--output", str(tmp_path / output)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / output}")
        assert "Traceback" not in err


def _readme_commands() -> list[list[str]]:
    """argv of every ``subdata ...`` line in README.md's fenced blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("subdata ")]


class TestReadmeCommands:
    """Every command line the README shows parses as written."""

    def test_readme_shows_labels(self):
        methods = [argv[argv.index("--method") + 1]
                   for argv in _readme_commands() if "--method" in argv]
        assert "levss:design=intercept" in methods
        assert any("levss:T=" in m and "," in m for m in methods)

    @pytest.mark.parametrize("argv", _readme_commands(),
                             ids=lambda argv: " ".join(argv[:1]))
    def test_parses(self, argv):
        rc = parse_cli(argv)
        assert rc.command == argv[0]
