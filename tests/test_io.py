"""CSV ingestion with coordinate-carrying errors, and result round-trips."""

import csv
import hashlib
import io
import json
import math
import os
import re
import signal
import threading
import time
import urllib.request
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subdata import (
    BootstrapPlan,
    ConfigError,
    DataFormatError,
    ScenarioConfig,
    gen_dataset,
    read_csv,
    read_records,
    run_bootstrap,
    run_simulation,
    summarize,
    write_dataset,
    write_results,
)
from subdata import io as subdata_io
from subdata.io import RECORD_COLUMNS, write_selection, write_timing
from subdata.linalg import DataMatrix
from subdata import LevssConfig, select_levss, run_timing


def _write(tmp_path, text, name="data.csv"):
    f = tmp_path / name
    f.write_text(text)
    return f


class TestReadCsv:
    def test_basic_shapes(self, tmp_path):
        f = _write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        d = read_csv(f, response="y")
        assert d.values.shape == (3, 2)
        assert np.array_equal(d.response, [3.0, 6.0, 9.0])

    def test_column_selection_by_name(self, tmp_path):
        f = _write(tmp_path, "a,b,c,y\n1,2,3,4\n5,6,7,8\n")
        d = read_csv(f, covariates=["c", "a"], response="y")
        assert np.array_equal(d.values, [[3.0, 1.0], [7.0, 5.0]])

    def test_no_response(self, tmp_path):
        f = _write(tmp_path, "a,b\n1,2\n3,4\n")
        d = read_csv(f)
        assert d.response is None
        assert d.values.shape == (2, 2)

    def test_missing_column_rejected(self, tmp_path):
        f = _write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ConfigError, match="z"):
            read_csv(f, covariates=["z"])
        with pytest.raises(ConfigError, match="y"):
            read_csv(f, response="y")

    @pytest.mark.parametrize("covariates, response, column", [
        (["a", "a"], None, "'a'"),
        (["a", "b", "a"], "y", "'a'"),
        (["a", "y"], "y", "'y'"),
    ], ids=["twice", "twice-with-response", "response-as-covariate"])
    def test_column_named_twice_rejected(self, tmp_path, covariates, response, column):
        f = _write(tmp_path, "a,b,y\n1,2,3\n4,5,7\n2,8,1\n")
        with pytest.raises(ConfigError, match=column):
            read_csv(f, covariates=covariates, response=response)

    @pytest.mark.parametrize("kwargs, match", [
        ({"log_response": True}, "log_response"),
        ({"covariates": ["a", "a"]}, "'a'"),
        ({"covariates": ["a", "y"], "response": "y"}, "'y'"),
    ], ids=["log-without-response", "twice", "response-as-covariate"])
    @pytest.mark.parametrize("content", [None, b"a,b,y\n1,2,\xff\n"],
                             ids=["missing-file", "undecodable-file"])
    def test_argument_errors_come_before_the_file(self, tmp_path, kwargs, match,
                                                  content):
        f = tmp_path / "d.csv"
        if content is not None:
            f.write_bytes(content)
        with pytest.raises(ConfigError, match=match):
            read_csv(f, **kwargs)

    def test_malformed_cell_coordinates(self, tmp_path):
        rows = ["a,b,c"] + ["1,2,3"] * 6
        rows[5] = "1,abc,3"  # data row 5, column 2
        f = _write(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError) as err:
            read_csv(f)
        assert err.value.row == 5
        assert err.value.col == 2
        assert "row 5" in str(err.value) and "2" in str(err.value)

    def test_non_finite_cell_rejected(self, tmp_path):
        f = _write(tmp_path, "a,b\n1,2\n1,nan\n")
        with pytest.raises(DataFormatError) as err:
            read_csv(f)
        assert (err.value.row, err.value.col) == (2, 2)

    def test_ragged_row_rejected(self, tmp_path):
        f = _write(tmp_path, "a,b\n1,2\n1\n")
        with pytest.raises(DataFormatError) as err:
            read_csv(f)
        assert err.value.row == 2

    def test_empty_data_rejected(self, tmp_path):
        f = _write(tmp_path, "a,b\n")
        with pytest.raises(DataFormatError):
            read_csv(f)

    def test_duplicate_header_rejected(self, tmp_path):
        f = _write(tmp_path, "a,a\n1,2\n")
        with pytest.raises(DataFormatError):
            read_csv(f)

    def test_log_response(self, tmp_path):
        f = _write(tmp_path, "x,y\n1,1\n2,7.389056098930650\n")
        d = read_csv(f, response="y", log_response=True)
        assert d.response[0] == pytest.approx(0.0, abs=1e-15)
        assert d.response[1] == pytest.approx(2.0, abs=1e-12)

    def test_log_of_nonpositive_names_row(self, tmp_path):
        f = _write(tmp_path, "x,y\n1,5\n2,0\n3,4\n")
        with pytest.raises(DataFormatError, match="row 2"):
            read_csv(f, response="y", log_response=True)

    def test_log_without_response_rejected(self, tmp_path):
        f = _write(tmp_path, "x,y\n1,5\n")
        with pytest.raises(ConfigError):
            read_csv(f, log_response=True)

    def test_no_covariates_rejected(self, tmp_path):
        f = _write(tmp_path, "x,y\n1,5\n")
        with pytest.raises(ConfigError, match="no covariate columns"):
            read_csv(f, covariates=[])


class TestDatasetRoundTrip:
    def test_bit_exact(self, tmp_path):
        cfg = ScenarioConfig(case="mvnormal", n=50, p=3, k=10, seed=3)
        data = gen_dataset(cfg)
        path = write_dataset(data, tmp_path / "d.csv")
        back = read_csv(path, response="y")
        assert np.array_equal(back.values, data.values)
        assert np.array_equal(back.response, data.response)

    def test_header_names(self, tmp_path):
        cfg = ScenarioConfig(case="uniform01", n=5, p=2, k=3, seed=0)
        path = write_dataset(gen_dataset(cfg), tmp_path / "d.csv")
        assert path.read_text().splitlines()[0] == "x1,x2,y"

    @pytest.mark.parametrize("parse", ["vectorised", "scan"])
    def test_arrays_are_row_major(self, tmp_path, monkeypatch, parse):
        data = gen_dataset(ScenarioConfig(case="mvnormal", n=50, p=3, k=10, seed=3))
        f = write_dataset(data, tmp_path / "d.csv")
        (_scan_only if parse == "scan" else _refuse_scan)(monkeypatch)
        for kwargs in ({"response": "y"}, {"covariates": ["x3", "x1"], "response": "y"},
                       {"covariates": ["x2"]}, {}):
            d = read_csv(f, **kwargs)
            assert d.values.flags.c_contiguous, kwargs
            assert d.response is None or d.response.flags.c_contiguous, kwargs

    def test_bootstrap_of_the_read_back_equals_the_original(self, tmp_path):
        # the same numbers give the same records, bit for bit, whether they
        # were generated or read back: X has one layout either way
        data = gen_dataset(ScenarioConfig(case="mvnormal", n=20_000, p=10, k=11, seed=7))
        back = read_csv(write_dataset(data, tmp_path / "d.csv"), response="y")
        plan = BootstrapPlan.from_multiples(10, n_boot=3, seed=1)

        def untimed(records):
            return [repr(replace(r, elapsed_select=0.0, elapsed_fit=0.0)) for r in records]

        want = run_bootstrap(data, plan)
        assert len(want) == 72 and not any(r.failed for r in want)
        assert untimed(run_bootstrap(back, plan)) == untimed(want)


class TestResultsRoundTrip:
    def test_records_survive(self, tmp_path):
        cfg = ScenarioConfig(case="mvnormal", n=200, p=3, k=30, seed=1)
        recs = run_simulation(cfg, ("levss", "uniform"), reps=2)
        csv_path, json_path = write_results(
            recs, summarize(recs), tmp_path / "out.csv"
        )
        assert csv_path.suffix == ".csv" and json_path.suffix == ".json"
        back = read_records(csv_path)
        assert back == recs

    @pytest.mark.parametrize("name, csv_name, json_name", [
        ("run", "run.csv", "run.json"),
        ("run.csv", "run.csv", "run.json"),
        ("run.json", "run.csv", "run.json"),
        ("run.a", "run.a.csv", "run.a.json"),
        ("run.a.csv", "run.a.csv", "run.a.json"),
    ])
    def test_output_names(self, tmp_path, name, csv_name, json_name):
        # only a .csv or .json suffix is dropped: run.a and run.b stay apart
        paths = write_results([], {}, tmp_path / name)
        assert paths == (tmp_path / csv_name, tmp_path / json_name)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([csv_name, json_name])

    def test_records_with_byte_order_mark_survive(self, tmp_path):
        cfg = ScenarioConfig(case="mvnormal", n=200, p=3, k=30, seed=1)
        recs = run_simulation(cfg, ("levss", "iboss"), reps=2)
        csv_path, _ = write_results(recs, summarize(recs), tmp_path / "out.csv")
        csv_path.write_bytes(b"\xef\xbb\xbf" + csv_path.read_bytes())
        assert read_records(csv_path) == recs

    def test_undecodable_records_file_rejected(self, tmp_path):
        csv_path, _ = write_results([], {}, tmp_path / "r.csv")
        with open(csv_path, "ab") as fh:
            fh.write(b"\xe9\n")
        with pytest.raises(DataFormatError, match="r.csv"):
            read_records(csv_path)

    def test_nan_metrics_survive(self, tmp_path):
        cfg = ScenarioConfig(case="mvnormal", n=40, p=2, k=40, seed=2)
        with pytest.warns(UserWarning):
            recs = run_simulation(cfg, ("levss",), reps=1)
        csv_path, _ = write_results(recs, summarize(recs), tmp_path / "out.csv")
        back = read_records(csv_path)
        assert back[0].failed
        assert math.isnan(back[0].mse_slopes)
        assert back[0].error == recs[0].error

    def test_interaction_none_fields_survive(self, tmp_path):
        cfg = ScenarioConfig(case="mvnormal", n=200, p=3, k=30, seed=4)
        recs = run_simulation(cfg, ("levss",), reps=1)
        assert recs[0].mse_main is None
        csv_path, _ = write_results(recs, summarize(recs), tmp_path / "o.csv")
        assert read_records(csv_path)[0].mse_main is None

    def test_foreign_header_rejected(self, tmp_path):
        f = _write(tmp_path, "a,b\n1,2\n", name="r.csv")
        with pytest.raises(DataFormatError, match="unexpected records header"):
            read_records(f)

    @pytest.mark.parametrize("column", ["repetition", "logdet"])
    def test_malformed_cell_names_row_and_column(self, tmp_path, column):
        cfg = ScenarioConfig(case="mvnormal", n=200, p=3, k=30, seed=1)
        recs = run_simulation(cfg, ("uniform",), reps=2)
        csv_path, _ = write_results(recs, summarize(recs), tmp_path / "r.csv")
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        col = RECORD_COLUMNS.index(column) + 1
        rows[2][col - 1] = "x"  # data row 2
        with open(csv_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(DataFormatError, match=f"'x' at row 2, col {col}") as err:
            read_records(csv_path)
        assert (err.value.row, err.value.col) == (2, col)

    def test_csv_header_matches_record_fields(self, tmp_path):
        csv_path, _ = write_results([], summarize([]), tmp_path / "e.csv")
        header = csv_path.read_text().splitlines()
        assert header == [",".join(RECORD_COLUMNS)]

    def test_json_is_sorted_and_echoes_config(self, tmp_path):
        cfg = ScenarioConfig(case="uniform01", n=100, p=2, k=10, seed=5)
        recs = run_simulation(cfg, ("uniform",), reps=1)
        _, json_path = write_results(
            recs, summarize(recs, config_echo={"case": "uniform01"}),
            tmp_path / "r.csv",
        )
        doc = json.loads(json_path.read_text())
        assert doc["config"] == {"case": "uniform01"}
        assert doc["rng"].startswith("numpy")
        dumped = json_path.read_text()
        assert dumped.index('"config"') < dumped.index('"rng"')


class TestWriteTiming:
    def test_round_trip_columns(self, tmp_path):
        recs = run_timing([100], p=2, k=10, selectors=("levss",), reps=1)
        csv_path, json_path = write_timing(recs, {"p": 2}, tmp_path / "t.csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n,selector,reps,mean_seconds,median_seconds"
        assert len(lines) == 2
        assert json.loads(json_path.read_text()) == {"p": 2}


def _selection():
    return select_levss(np.random.default_rng(0).normal(size=(50, 3)), LevssConfig(k=5))


_PAIR_WRITERS = {
    "results": lambda path: write_results([], {}, path),
    "timing": lambda path: write_timing([], {}, path),
    "selection": lambda path: write_selection(_selection(), {}, path),
}


class TestWriteFailures:
    """A file that cannot be written is a DataFormatError naming its path."""

    @pytest.mark.parametrize("name", ["absent/r.csv", "", "."])
    @pytest.mark.parametrize("writer", _PAIR_WRITERS)
    def test_pair_writers(self, tmp_path, monkeypatch, writer, name):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(DataFormatError, match=re.escape(f"cannot write {name}")):
            _PAIR_WRITERS[writer](name)
        assert list(tmp_path.iterdir()) == []

    def test_dataset_onto_a_directory(self, tmp_path):
        data = gen_dataset(ScenarioConfig(case="mvnormal", n=40, p=2, k=10, seed=5))
        with pytest.raises(DataFormatError, match=re.escape(f"cannot write {tmp_path}")):
            write_dataset(data, tmp_path)


class TestWriteSelection:
    def test_indices_one_per_line(self, tmp_path):
        x = np.random.default_rng(0).normal(size=(50, 3))
        res = select_levss(x, LevssConfig(k=5))
        csv_path, json_path = write_selection(res, {"method": "levss"}, tmp_path / "s.csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "index"
        assert [int(v) for v in lines[1:]] == res.indices.tolist()
        doc = json.loads(json_path.read_text())
        assert doc["method"] == "levss"


def _outcome(read):
    """What a read gives: its arrays' exact bits, or the error's coordinates."""
    try:
        d = read()
    except DataFormatError as err:
        return ("error", err.row, err.col, str(err))
    y = None if d.response is None else d.response.tobytes()
    return ("data", d.values.shape, d.values.tobytes(), y)


def _scan_only(monkeypatch):
    """Make read_csv skip its vectorised pass, as if loadtxt had refused."""
    monkeypatch.setattr(subdata_io, "_load_body", lambda *args: None)


def _refuse_scan(monkeypatch):
    """Fail the test if read_csv falls back to the cell scanner."""
    def refuse(*args):
        raise AssertionError("the cell scanner ran on a clean file")

    monkeypatch.setattr(subdata_io, "_scan_cells", refuse)


# (file text, read_csv keyword arguments, the rows of [covariates..., response]
# that the cell-by-cell parse gives, or the (row, col) of its DataFormatError)
_AWKWARD = {
    "blank line in the middle": ("a,b\n1,2\n\n3,4\n", {}, (2, None)),
    "blank line at the end": ("a,b\n1,2\n3,4\n\n", {}, (3, None)),
    "blank line only": ("a,b\n\n", {}, (1, None)),
    "crlf endings": ("a,b\r\n1,2\r\n3,4\r\n", {}, [[1, 2], [3, 4]]),
    "lone cr endings": ("a,b\r1,2\r3,4\r", {}, [[1, 2], [3, 4]]),
    "cr blank line": ("a,b\r\n1,2\r\r\n3,4\r\n", {}, (2, None)),
    "no final newline": ("a,b\n1,2\n3,4", {}, [[1, 2], [3, 4]]),
    "quoted cells": ('a,b\n"1",2\n3,"4.5"\n', {}, [[1, 2], [3, 4.5]]),
    "quoted header": ('"a","b"\n1,2\n', {}, [[1, 2]]),
    "unicode digits": ("a,b\n١,2\n", {}, [[1, 2]]),
    "spaces around cells": ("a,b\n 1 ,\t2\n", {}, [[1, 2]]),
    "short row": ("a,b,c\n1,2,3\n4,5\n", {}, (2, None)),
    "long row": ("a,b\n1,2\n3,4,5\n", {}, (2, None)),
    "trailing comma": ("a,b\n1,2,\n", {}, (1, None)),
    "inf cell": ("a,b\n1,2\ninf,4\n", {}, (2, 1)),
    "nan cell": ("a,b\n1,nan\n", {}, (1, 2)),
    "overflowing cell": ("a,b\n1,2\n3,-1e500\n", {}, (2, 2)),
    "empty cell": ("a,b\n1,\n", {}, (1, 2)),
    "underscore cell": ("a,b\n1,2\n1_000,4\n", {}, (2, 1)),
    "comment-like cell": ("a,b\n1,#2\n", {}, (1, 2)),
    "bad cell in an unread column": (
        "a,b,y\n1,x,3\n4,nan,6\n", {"covariates": ["a"], "response": "y"},
        [[1, 3], [4, 6]]),
    "covariate subset reordered": (
        "a,b,c,y\n1,2,3,4\n5,6,7,8\n",
        {"covariates": ["c", "a"], "response": "y"}, [[3, 1, 4], [7, 5, 8]]),
    "response not last": ("y,a\n4,1\n8,5\n", {"response": "y"}, [[1, 4], [5, 8]]),
    "byte-order mark": ("\ufeffy,a\n4,1\n8,5\n", {"response": "y"}, [[1, 4], [5, 8]]),
    "log response": (
        "x,y\n1,1\n2,7.389056098930650\n", {"response": "y", "log_response": True},
        [[1, 0.0], [2, math.log(7.389056098930650)]]),
    "log response of zero": (
        "x,y\n1,5\n2,0\n", {"response": "y", "log_response": True}, (2, 2)),
    "header with no rows": ("a,b\n", {}, (None, None)),
    "header with no newline": ("a,b", {}, (None, None)),
}


class TestParsePaths:
    """The vectorised pass and the cell scan agree on every input."""

    @pytest.mark.parametrize("name", list(_AWKWARD))
    def test_awkward_input(self, tmp_path, monkeypatch, name):
        text, kwargs, want = _AWKWARD[name]
        f = tmp_path / "d.csv"
        f.write_bytes(text.encode())
        got = _outcome(lambda: read_csv(f, **kwargs))
        if isinstance(want, tuple):
            assert got[:3] == ("error", *want)
        else:
            rows = np.array(want, dtype=np.float64)
            X, y = (rows[:, :-1], rows[:, -1].tobytes()) if "response" in kwargs \
                else (rows, None)
            assert got == ("data", X.shape, X.tobytes(), y)
        _scan_only(monkeypatch)
        assert _outcome(lambda: read_csv(f, **kwargs)) == got

    def test_written_dataset_parses_to_the_same_bits(self, tmp_path, monkeypatch):
        cfg = ScenarioConfig(case="mvnormal", n=3000, p=4, k=10, seed=7)
        data = gen_dataset(cfg)
        edge = np.array([[5e-324, -0.0, 1.7976931348623157e308, 2.2250738585072014e-308],
                         [1e-300, -1e22, 0.1, 1 / 3]])
        data = DataMatrix(np.vstack([data.values, edge]),
                          np.concatenate([data.response, [1.0, -2.5]]))
        f = write_dataset(data, tmp_path / "d.csv")
        with open(f, "a") as fh:
            fh.write("1,1.,.5,+2E3,-7e-1\n")
        fast = _outcome(lambda: read_csv(f, response="y"))
        _scan_only(monkeypatch)
        assert _outcome(lambda: read_csv(f, response="y")) == fast
        assert fast[1] == (data.n + 1, 4)
        back = np.frombuffer(fast[2]).reshape(fast[1])
        assert np.array_equal(back[:-1].view(np.int64), data.values.view(np.int64))
        assert back[-1].tolist() == [1.0, 1.0, 0.5, 2000.0]
        y = np.frombuffer(fast[3])
        assert np.array_equal(y[:-1].view(np.int64), data.response.view(np.int64))
        assert y[-1] == -0.7

    def test_clean_file_takes_the_vectorised_path(self, tmp_path, monkeypatch):
        _refuse_scan(monkeypatch)
        f = _write(tmp_path, "a,b,y\r\n1,2,3\r\n4.5,-6e-3,7\r\n")
        d = read_csv(f, response="y")
        assert np.array_equal(d.values, [[1.0, 2.0], [4.5, -6e-3]])
        assert np.array_equal(d.response, [3.0, 7.0])

    def test_crlf_split_across_count_blocks(self, tmp_path, monkeypatch):
        # put a row's "\r" last in one block and its "\n" first in the next
        block = subdata_io._COUNT_BLOCK
        header = next(h for h in (f"{'a' * m},b\r\n" for m in range(1, 6))
                      if (block - 4 - len(h)) % 5 == 0)
        rows = block // 5 + 2
        text = (header + "1,2\r\n" * rows).encode()
        assert text[block - 1:block + 1] == b"\r\n"
        f = tmp_path / "d.csv"
        f.write_bytes(text)
        _refuse_scan(monkeypatch)
        assert read_csv(f).n == rows

    def test_undecodable_header_byte_names_the_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_bytes(b"a\xe9,b\n1,2\n")
        with pytest.raises(DataFormatError, match="d.csv"):
            read_csv(f)

    def test_undecodable_byte_past_the_first_block(self, tmp_path):
        rows = [b"1.25,2.5"] * 2000
        rows[1499] = b"1.25,\xe9.5"
        text = b"a,b\n" + b"\n".join(rows) + b"\n"
        assert text.index(b"\xe9") > 8192
        f = tmp_path / "d.csv"
        f.write_bytes(text)
        with pytest.raises(DataFormatError, match="d.csv"):
            read_csv(f)

    def test_byte_order_mark_reads_as_without(self, tmp_path, monkeypatch):
        # the response is the first column, so a kept mark would hide its name
        data = gen_dataset(ScenarioConfig(case="mvnormal", n=50, p=2, k=10, seed=3))
        rows = np.column_stack([data.response, data.values]).tolist()
        text = "y,x1,x2\r\n" + "".join(",".join(map(repr, r)) + "\r\n" for r in rows)
        plain = tmp_path / "plain.csv"
        plain.write_text(text)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(text.encode("utf-8-sig"))
        want = _outcome(lambda: read_csv(plain, response="y"))
        assert want == ("data", (50, 2), data.values.tobytes(), data.response.tobytes())
        assert _outcome(lambda: read_csv(marked, response="y")) == want
        _scan_only(monkeypatch)
        assert _outcome(lambda: read_csv(marked, response="y")) == want

    def test_every_column_named_is_pinned(self, tmp_path):
        # the bits and the layout (row-major, as every DataMatrix keeps
        # it) of X and y when every column is named in header order
        data = gen_dataset(ScenarioConfig(case="mvnormal", n=3000, p=4, k=10, seed=7))
        f = write_dataset(data, tmp_path / "d.csv")
        d = read_csv(f, covariates=["x1", "x2", "x3", "x4"], response="y")
        digest = hashlib.sha256(d.values.tobytes() + d.response.tobytes()).hexdigest()
        assert digest == "e4bf7658879e5996056e82bf156e7963fa5a0acbc3f7254ecfa062d34936d24a"
        assert d.values.strides == (8 * 4, 8)
        assert d.response.strides == (8,)

    def test_underscore_numeral_rejected(self, tmp_path):
        f = _write(tmp_path, "a,b\n1,2\n3,1_000\n")
        with pytest.raises(DataFormatError, match="row 2, col 2") as err:
            read_csv(f)
        assert (err.value.row, err.value.col) == (2, 2)


def _text_line_count(path):
    """What the text reader makes of ``path``: its line count and whether
    a line is empty (its ending alone), or its error."""
    try:
        with open(path, newline="") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        return ("error", str(exc))
    return ("lines", len(lines), any(line in ("\n", "\r", "\r\n") for line in lines))


# cells, line endings, a two-byte character and its two halves alone
_COUNT_PIECES = [b"a", b",", b"1", b"\r", b"\n", "\u00e9".encode(), b"\xc3", b"\xa9"]
# pieces that always decode, "\r\n" among them, so that most texts count
_DECODABLE_PIECES = _COUNT_PIECES[:6] + [b"\r\n"]


class TestCountLines:
    """The byte count of line endings, and the empty-line flag, equal the
    text reader's; a text that reader cannot decode fails read_csv with
    the reader's own error."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bom=st.booleans(),
           pieces=st.lists(st.sampled_from(_COUNT_PIECES), max_size=40)
           | st.lists(st.sampled_from(_DECODABLE_PIECES), max_size=40),
           block=st.integers(1, 7))
    def test_equals_the_text_reader(self, tmp_path, bom, pieces, block):
        f = tmp_path / "d.csv"
        text = b"\xef\xbb\xbf" * bom + b"".join(pieces)
        f.write_bytes(text)
        want = _text_line_count(f)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subdata_io, "_COUNT_BLOCK", block)
            if want[0] == "lines":
                assert ("lines", *subdata_io._count_lines(f)) == want
                return
            # below a header that decodes, so that no header check fails first
            f.write_bytes(b"\xef\xbb\xbf" * bom + b"a,b\n" + text[3 * bom:])
            with pytest.raises(DataFormatError) as err:
                read_csv(f)
            assert str(err.value) == f"cannot read {f}: {_text_line_count(f)[1]}"

    def test_undecodable_byte_after_the_first_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(subdata_io, "_COUNT_BLOCK", 4)
        f = tmp_path / "d.csv"
        f.write_bytes(b"a,b\n1,2\n3,\xff\n")
        with pytest.raises(DataFormatError, match="d.csv"):
            read_csv(f)

    def test_ascii_block_after_a_split_character_is_decoded(self, tmp_path,
                                                            monkeypatch):
        # b"\xc3" then b"a": the second block is ASCII yet ends a bad sequence
        monkeypatch.setattr(subdata_io, "_COUNT_BLOCK", 1)
        f = tmp_path / "d.csv"
        f.write_bytes(b"a,b\n1,\xc3a\xa9\n")
        want = _text_line_count(f)
        assert want[0] == "error"
        with pytest.raises(DataFormatError) as err:
            read_csv(f)
        assert str(err.value) == f"cannot read {f}: {want[1]}"


def _small_dataset(tmp_path):
    data = gen_dataset(ScenarioConfig(case="mvnormal", n=40, p=2, k=10, seed=5))
    return write_dataset(data, tmp_path / "d.csv")


class TestLoadtxtSource:
    """numpy reads a plain file by path, and never as compressed or remote."""

    def test_plain_file_goes_to_numpy_by_absolute_path(self, tmp_path, monkeypatch):
        _small_dataset(tmp_path)
        seen = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt",
                            lambda fname, **kw: seen.append(fname) or loadtxt(fname, **kw))
        monkeypatch.chdir(tmp_path)
        read_csv("d.csv", response="y")
        assert seen == [str(tmp_path / "d.csv")]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma", ".GZ"])
    def test_compressed_suffix_reads_as_plain_text(self, tmp_path, monkeypatch,
                                                   suffix):
        plain = _small_dataset(tmp_path)
        odd = tmp_path / f"d.csv{suffix}"
        odd.write_bytes(plain.read_bytes())
        want = _outcome(lambda: read_csv(plain, response="y"))
        _refuse_scan(monkeypatch)
        assert _outcome(lambda: read_csv(odd, response="y")) == want

    def test_relative_path_from_another_working_directory(self, tmp_path,
                                                          monkeypatch):
        (tmp_path / "sub").mkdir()
        f = _small_dataset(tmp_path / "sub")
        want = _outcome(lambda: read_csv(f, response="y"))
        _refuse_scan(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert _outcome(lambda: read_csv("sub/d.csv", response="y")) == want
        monkeypatch.chdir(tmp_path / "sub")
        assert _outcome(lambda: read_csv("d.csv", response="y")) == want

    def test_url_like_relative_path_is_a_file(self, tmp_path, monkeypatch):
        # "http://host/d.csv" names the file http:/host/d.csv below the
        # working directory; numpy's opener would take it for a URL
        (tmp_path / "http:" / "host").mkdir(parents=True)
        f = _small_dataset(tmp_path / "http:" / "host")
        want = _outcome(lambda: read_csv(f, response="y"))

        def no_url(*args, **kwargs):
            raise AssertionError("a path was opened as a URL")

        monkeypatch.setattr(urllib.request, "urlopen", no_url)
        _refuse_scan(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert _outcome(lambda: read_csv("http://host/d.csv", response="y")) == want


class TestWriteDataset:
    @staticmethod
    def _csv_writer_bytes(data, path):
        """The file csv.writer makes of repr'd cells: the reference bytes."""
        header = [f"x{j + 1}" for j in range(data.p)]
        if data.response is not None:
            header.append("y")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(data.n):
                row = [repr(float(v)) for v in data.values[i]]
                if data.response is not None:
                    row.append(repr(float(data.response[i])))
                writer.writerow(row)
        return path.read_bytes()

    @pytest.mark.parametrize("with_response", [True, False])
    def test_bytes_match_csv_writer(self, tmp_path, monkeypatch, with_response):
        monkeypatch.setattr(subdata_io, "_WRITE_BLOCK_ROWS", 7)  # several blocks
        cfg = ScenarioConfig(case="mvnormal", n=40, p=3, k=10, seed=11)
        data = gen_dataset(cfg)
        values = data.values.copy()
        values[0] = [-0.0, 5e-324, 1e22]
        data = DataMatrix(values, data.response if with_response else None)
        want = self._csv_writer_bytes(data, tmp_path / "ref.csv")
        got = write_dataset(data, tmp_path / "d.csv").read_bytes()
        assert got == want
        assert got.startswith(b"x1,x2,x3,y\r\n" if with_response else b"x1,x2,x3\r\n")


def _full_outcome(read):
    """Everything a read gives: the arrays' shape, strides and bits, or the
    error's type, message and coordinates."""
    try:
        d = read()
    except Exception as err:
        return ("error", type(err).__name__, str(err),
                getattr(err, "row", None), getattr(err, "col", None))
    y = None if d.response is None else (d.response.strides, d.response.tobytes())
    return ("data", d.values.shape, d.values.strides, d.values.tobytes(), y)


def _usable(monkeypatch, cpus):
    """Let this process run on ``cpus`` CPUs, as far as subdata can tell."""
    assert cpus <= 4  # a read that forked per CPU would fork this many for real
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child ``os.fork`` starts, each checked reaped at the end.

    A reaped child is no longer this process's child, so ``waitpid``
    fails for it: no child is left running and none is left a zombie.
    """
    pids = []
    real_fork = os.fork

    def recording():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _serial_outcome(monkeypatch, read):
    with monkeypatch.context() as mp:
        _usable(mp, 1)
        return _full_outcome(read)


def _empty_line_in(text):
    return any(line in ("\n", "\r", "\r\n")
               for line in io.StringIO(text, newline=""))


# cells: clean numerals, then cells loadtxt refuses or the scan rejects
_GOOD_CELLS = ["1", "-2.5", "3e-3", " 4 ", "0.1", "1.7976931348623157e308"]
_ODD_CELLS = ["x", "1_0", "inf", "nan", "-1e500", '"5"', "١", ""]
_ENDINGS = ["\n", "\r\n", "\r"]


@st.composite
def _csv_texts(draw):
    """A CSV text with mixed endings and its column names.

    Rows are mostly clean; some are blank, wide, short, or hold a cell
    that loadtxt refuses or the finiteness check rejects, so that either
    half may fail.
    """
    width = draw(st.integers(2, 4))
    names = ["a", "b", "c", "d"][:width]
    header = draw(st.sampled_from(["plain", "bom", "quoted over two lines"]))
    if header == "quoted over two lines":
        names[0] = "a" + draw(st.sampled_from(_ENDINGS)) + "z"
    head = ",".join(f'"{n}"' if header != "plain" else n for n in names)
    lines = ["\ufeff" * (header == "bom") + head]
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["clean"] * 6 + ["odd", "blank", "wide", "short"]))
        cells = [draw(st.sampled_from(_GOOD_CELLS)) for _ in range(width)]
        if kind == "odd":
            cells[draw(st.integers(0, width - 1))] = draw(st.sampled_from(_ODD_CELLS))
        lines.append({"blank": "", "wide": ",".join(cells + ["1"]),
                      "short": ",".join(cells[1:])}.get(kind, ",".join(cells)))
    endings = [draw(st.sampled_from(_ENDINGS)) for _ in lines]
    if not draw(st.booleans()):
        endings[-1] = ""
    return "".join(map("".join, zip(lines, endings))), names


class TestSplitParse:
    """The parse split at its middle row, the second half in a forked
    child, equals the serial parse."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_csv_texts(), cpus=st.integers(2, 4), data=st.data())
    def test_equals_the_serial_parse(self, tmp_path, forks, case, cpus, data):
        text, names = case
        response = data.draw(st.sampled_from([None, *names]))
        rest = [n for n in names if n != response]
        covariates = data.draw(st.none() | st.permutations(rest).flatmap(
            lambda order: st.integers(1, len(order)).map(lambda m: order[:m])))
        f = tmp_path / "d.csv"
        f.write_bytes(text.encode())

        def read():
            return read_csv(f, covariates=covariates, response=response)

        before = len(forks)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subdata_io, "_SPLIT_MIN_ROWS", 1)
            serial = _serial_outcome(mp, read)
            assert len(forks) == before
            _usable(mp, cpus)
            assert _full_outcome(read) == serial
        header_lines = 1 + (names[0] != "a")
        n_rows = sum(1 for _line in io.StringIO(text, newline="")) - header_lines
        split = not _empty_line_in(text) and n_rows >= 2
        assert len(forks) - before == split

    @pytest.mark.parametrize("text", ["a,b\n1,2\n\n3,4\n5,6\n",
                                      "a,b\r1,2\r\r3,4\r5,6\r"])
    def test_empty_line_keeps_the_serial_parse(self, tmp_path, monkeypatch, forks,
                                               text):
        f = tmp_path / "d.csv"
        f.write_bytes(text.encode())
        monkeypatch.setattr(subdata_io, "_SPLIT_MIN_ROWS", 1)
        serial = _serial_outcome(monkeypatch, lambda: read_csv(f))
        assert serial[:2] == ("error", "DataFormatError")
        _usable(monkeypatch, 2)
        assert _full_outcome(lambda: read_csv(f)) == serial
        assert forks == []
        # unguarded, the first half reads past the empty line into the
        # second, and a row comes back twice
        count = subdata_io._count_lines
        monkeypatch.setattr(subdata_io, "_count_lines",
                            lambda path: (count(path)[0], False))
        with pytest.warns(UserWarning, match="contained no data"):
            d = read_csv(f)
        assert d.values.tolist() == [[1, 2], [3, 4], [3, 4], [5, 6]]
        assert len(forks) == 1

    def test_written_dataset_splits_to_the_same_bits(self, tmp_path, monkeypatch,
                                                     forks):
        data = gen_dataset(ScenarioConfig(case="mvnormal", n=3000, p=4, k=10, seed=7))
        f = write_dataset(data, tmp_path / "d.csv")
        monkeypatch.setattr(subdata_io, "_SPLIT_MIN_ROWS", 1000)
        _usable(monkeypatch, 4)
        d = read_csv(f, covariates=["x1", "x2", "x3", "x4"], response="y")
        assert len(forks) == 1  # two halves of 1500 rows
        assert np.array_equal(d.values.view(np.int64), data.values.view(np.int64))
        assert np.array_equal(d.response.view(np.int64), data.response.view(np.int64))
        assert d.values.strides == (8 * 4, 8) and d.response.strides == (8,)

    def test_one_child_at_most(self, tmp_path, monkeypatch, forks):
        # four usable CPUs still give one child
        monkeypatch.setattr(subdata_io, "_SPLIT_MIN_ROWS", 2)
        _usable(monkeypatch, 4)
        f = _clean_file(tmp_path)
        d = read_csv(f, response="y")
        assert len(forks) == 1
        assert d.values[:, 0].tolist() == list(range(12))

    @pytest.mark.parametrize("rows, children", [(32767, 0), (32768, 1)])
    def test_documented_threshold(self, tmp_path, monkeypatch, forks, rows,
                                  children):
        # _SPLIT_MIN_ROWS as shipped: a body splits from 2^15 rows on
        f = _clean_file(tmp_path, rows=rows)
        serial = _serial_outcome(monkeypatch, lambda: read_csv(f, response="y"))
        assert serial[:2] == ("data", (rows, 2))
        _usable(monkeypatch, 2)
        assert _full_outcome(lambda: read_csv(f, response="y")) == serial
        assert len(forks) == children


def _clean_file(tmp_path, name="d.csv", rows=12):
    text = "a,b,y\n" + "".join(f"{i},{i / 7!r},{-i}\n" for i in range(rows))
    f = tmp_path / name
    f.write_text(text)
    return f


class TestSplitGuards:
    """When the body is parsed serially, and what a split leaves behind."""

    @pytest.fixture(autouse=True)
    def small_halves(self, monkeypatch):
        monkeypatch.setattr(subdata_io, "_SPLIT_MIN_ROWS", 2)
        _usable(monkeypatch, 3)

    def test_clean_file_splits(self, tmp_path, forks):
        f = _clean_file(tmp_path)
        d = read_csv(f, response="y")
        assert len(forks) == 1
        assert d.values[:, 0].tolist() == list(range(12))

    @pytest.mark.parametrize("guard", ["empty line", "one usable CPU",
                                       "compressed suffix", "bytes path",
                                       "no os.fork", "no affinity mask",
                                       "another thread", "SIGCHLD ignored"])
    def test_serial_parse_when(self, tmp_path, monkeypatch, forks, guard):
        name = "d.csv.gz" if guard == "compressed suffix" else "d.csv"
        f = _clean_file(tmp_path, name)
        if guard == "empty line":
            f.write_text(f.read_text() + "\n")
        want = _serial_outcome(monkeypatch, lambda: read_csv(f, response="y"))
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        path = f
        if guard == "one usable CPU":
            _usable(monkeypatch, 1)
        elif guard == "bytes path":
            path = os.fsencode(f)
        elif guard == "no os.fork":
            monkeypatch.delattr(os, "fork")
        elif guard == "no affinity mask":
            monkeypatch.delattr(os, "sched_getaffinity")
        elif guard == "another thread":
            other.start()
        previous = signal.getsignal(signal.SIGCHLD)
        if guard == "SIGCHLD ignored":
            signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert _full_outcome(lambda: read_csv(path, response="y")) == want
        finally:
            signal.signal(signal.SIGCHLD, previous)
            stop.set()
            if other.is_alive():
                other.join()
        assert forks == []

    @pytest.mark.parametrize("failure", ["bad cell", "child raises",
                                         "child killed"])
    def test_failed_range_reruns_the_serial_parse(self, tmp_path, monkeypatch,
                                                  forks, failure):
        f = _clean_file(tmp_path)
        if failure == "bad cell":
            f.write_text(f.read_text().replace("11,", "1x,"))
        want = _serial_outcome(monkeypatch, lambda: read_csv(f, response="y"))
        parent, real = os.getpid(), np.loadtxt

        def loadtxt(fname, **kwargs):
            if os.getpid() != parent and failure == "child raises":
                raise RuntimeError("the child's half failed")
            if os.getpid() != parent and failure == "child killed":
                os.kill(os.getpid(), signal.SIGKILL)
            return real(fname, **kwargs)

        calls = []
        parse_rows = subdata_io._loadtxt

        def recording(source, skip, rows=None):
            calls.append((skip, rows))
            return parse_rows(source, skip, rows)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        monkeypatch.setattr(subdata_io, "_loadtxt", recording)
        assert _full_outcome(lambda: read_csv(f, response="y")) == want
        assert want[0] == ("error" if failure == "bad cell" else "data")
        assert len(forks) == 1
        # this process's calls: its own half of 6 rows, then the serial parse
        assert calls == [(1, 6), (1, None)]

    def test_exception_in_own_range_kills_then_reaps(self, tmp_path, monkeypatch,
                                                     forks):
        f = _clean_file(tmp_path)
        parent, real = os.getpid(), np.loadtxt

        def loadtxt(fname, **kwargs):
            if os.getpid() != parent:
                time.sleep(60)  # outlives the test unless killed
            elif kwargs["max_rows"] is not None:
                raise KeyboardInterrupt
            return real(fname, **kwargs)

        statuses = []
        waitpid = os.waitpid

        def recording(pid, options):
            out = waitpid(pid, options)
            statuses.append(out[1])
            return out

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        monkeypatch.setattr(os, "waitpid", recording)
        with pytest.raises(KeyboardInterrupt):
            read_csv(f, response="y")
        monkeypatch.setattr(os, "waitpid", waitpid)
        assert len(forks) == 1 and len(statuses) == 1
        assert all(os.WIFSIGNALED(s) and os.WTERMSIG(s) == signal.SIGKILL
                   for s in statuses)

    def test_child_gone_before_the_kill(self, tmp_path, monkeypatch, forks):
        # a child reaped elsewhere leaves no process to kill; the serial
        # parse still decides
        f = _clean_file(tmp_path)
        want = _serial_outcome(monkeypatch, lambda: read_csv(f, response="y"))
        parent, real = os.getpid(), np.loadtxt

        def loadtxt(fname, **kwargs):
            if os.getpid() == parent and kwargs["max_rows"] is not None:
                raise ValueError("this process's half failed")
            return real(fname, **kwargs)

        def gone(pid, sig):
            raise ProcessLookupError(3, "No such process")

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        monkeypatch.setattr(os, "kill", gone)
        assert _full_outcome(lambda: read_csv(f, response="y")) == want
        assert want[0] == "data" and len(forks) == 1

    def test_fork_error_reruns_the_serial_parse(self, tmp_path, monkeypatch, forks):
        f = _clean_file(tmp_path)
        want = _serial_outcome(monkeypatch, lambda: read_csv(f, response="y"))
        attempts = []

        def fails():
            attempts.append(1)
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fails)
        assert _full_outcome(lambda: read_csv(f, response="y")) == want
        assert attempts == [1] and forks == []
