"""CSV ingestion and result serialization.

Input files are headered CSV. Numbers are written with ``repr`` so a
read-back reproduces every float bit for bit. Result files come in
pairs: a records CSV plus a JSON summary next to it.

Every file is opened by :func:`_opened`, so a file that cannot be read
or written, whether it fails to open or fails part-way, is a
:class:`DataFormatError` naming its path, as is a cell that cannot be
used.
"""

from __future__ import annotations

import csv
import json
import math
import mmap
import os
import signal
import threading
import typing
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from .bench import MetricsRecord, TimingRecord, usable_cpus
from .errors import ConfigError, DataFormatError
from .linalg import DataMatrix

# bytes read at a time by _count_lines
_COUNT_BLOCK = 1 << 20
# rows each half of a split parse gets at least: a smaller body is parsed serially
_SPLIT_MIN_ROWS = 1 << 14
# suffixes numpy's path opener decompresses by
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")

# a parsed body: X, and y or None without a response column
_Body = tuple[np.ndarray, np.ndarray | None]


@contextmanager
def _opened(path, mode: str = "r"):
    """``path`` opened in ``mode``: the one place this module opens a file.

    A text file keeps its line endings as written (``newline=""``), and
    a text read starts past a leading UTF-8 byte-order mark. An
    ``OSError`` or ``UnicodeDecodeError``, from the open or from inside
    the ``with`` block, is a :class:`DataFormatError` saying the file
    cannot be read or written.
    """
    try:
        with open(path, mode, newline=None if "b" in mode else "") as fh:
            if mode == "r" and fh.read(1) != "\ufeff":
                fh.seek(0)
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        verb = "read" if mode.startswith("r") else "write"
        raise DataFormatError(f"cannot {verb} {path}: {exc}") from exc


def _read_rows(path):
    """The header of ``path``, then each row below it, in file order, once
    that row is found as wide as the header.

    The whole text is decoded before the first row is given, so a byte
    that does not decode is reported before any row problem.
    """
    with _opened(path) as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataFormatError(f"{path} is empty")
    yield rows[0]
    width = len(rows[0])
    for i, row in enumerate(rows[1:], 1):
        if len(row) != width:
            raise DataFormatError(f"row {i} has {len(row)} fields, header has {width}",
                                  row=i)
        yield row


def _count_lines(path) -> tuple[int, bool]:
    r"""Physical lines in ``path`` as ``open(newline="")`` splits them,
    and whether any of them is empty.

    ``\n``, ``\r\n`` and a lone ``\r`` each end a line, a last line
    without an ending counts too, and blank lines count like any other.
    The endings are counted on the raw bytes, ``_COUNT_BLOCK`` at a
    time, which takes the encoding ``open`` picks to write ``\n`` and
    ``\r`` as those single bytes and to use the bytes for nothing else,
    as UTF-8 and the single-byte encodings do. Nothing is decoded here:
    the header read, the vectorised parse and the cell scan each read
    the text, and a byte that does not decode fails there.

    A line is empty where it is its ending alone: where the file starts
    with an ending byte, or where two ending bytes meet other than as
    ``\r\n``.
    """
    endings = empty = 0
    cr_before = False  # the previous block ended in "\r"
    end_before = True  # ... in an ending byte (the file's start counts)
    last = b""
    with _opened(path, "rb") as fh:
        while block := fh.read(_COUNT_BLOCK):
            b = np.frombuffer(block, dtype=np.uint8)
            lf, cr = b == 10, b == 13
            ends = lf | cr
            pairs = np.count_nonzero(cr[:-1] & lf[1:]) + (cr_before and lf[0])
            endings += np.count_nonzero(ends) - int(pairs)
            # ending bytes side by side, less the "\r\n" pairs among them
            empty += (np.count_nonzero(ends[:-1] & ends[1:])
                      + (end_before and ends[0]) - int(pairs))
            cr_before, end_before = bool(cr[-1]), bool(ends[-1])
            last = block[-1:]
    return int(endings) + (last not in (b"", b"\n", b"\r")), bool(empty)


def _parse_cell(cell: str) -> float:
    """``float(cell)``, refusing the underscores Python numeric literals allow."""
    if "_" in cell:
        raise ValueError(cell)
    return float(cell)


def _read_cell(read, cell: str, row: int, col: int, what: str = "numeric"):
    """``read(cell)``; a ``ValueError`` from it is a :class:`DataFormatError`
    naming the cell's 1-based row and column."""
    try:
        return read(cell)
    except ValueError:
        raise DataFormatError(f"malformed {what} cell {cell!r} at row {row}, "
                              f"col {col}", row=row, col=col) from None


def _scan_cells(path, col_of: dict[str, int], cov_names: list[str],
                response: str | None) -> _Body:
    """X and y parsed cell by cell, naming the first bad cell."""
    names = cov_names + ([response] if response is not None else [])
    cols = [col_of[name] for name in names]
    rows = _read_rows(path)
    next(rows)  # the header
    parsed = []
    for i, row in enumerate(rows, 1):
        parsed.append([])
        for c in cols:
            val = _read_cell(_parse_cell, row[c], i, c + 1)
            if not math.isfinite(val):
                raise DataFormatError(f"non-finite cell {row[c]!r} at row {i}, "
                                      f"col {c + 1}", row=i, col=c + 1)
            parsed[-1].append(val)
    parsed = np.array(parsed, dtype=np.float64).reshape(-1, len(cols))
    p = len(cov_names)
    return parsed[:, :p], (parsed[:, p] if response is not None else None)


def _read_header(path) -> tuple[list[str], int, int, bool]:
    """Header cells, the physical lines they span, the data lines below,
    and whether any line of the file is empty.

    A byte the text reader cannot decode fails here, naming the file,
    where it sits in the first block of text read for the header; one
    further on fails the parse of the body as well.
    """
    n_lines, empty_line = _count_lines(path)
    with _opened(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
    if header is None:
        raise DataFormatError(f"{path} is empty")
    return header, reader.line_num, n_lines - reader.line_num, empty_line


@contextmanager
def _loadtxt_source(path):
    """``path`` in the form ``np.loadtxt`` reads fastest to the same array.

    Given a ``str`` path, numpy opens the file itself and its C reader
    pulls large blocks of text; a handle it iterates one line at a time.
    Its opener (``np.lib._datasource``) decompresses by file suffix and
    takes a relative path that parses as a URL for one, so the path goes
    to numpy only made absolute and without such a suffix. Any other
    ``path`` is opened here, with the encoding and line endings
    ``open`` gives either way; the byte-order mark that :func:`_opened`
    skips lies in the header lines, which the parse skips anyway.
    """
    name = os.fspath(path)
    if isinstance(name, str) and not name.lower().endswith(_COMPRESSED_SUFFIXES):
        yield os.path.join(os.getcwd(), name)
    else:
        with _opened(path) as fh:
            yield fh


def _loadtxt(source, skip: int, rows: int | None = None) -> np.ndarray:
    """The rows of ``source`` below its first ``skip`` lines, all or ``rows``."""
    with warnings.catch_warnings():
        # a body of blank lines only: the row count of _load_body rejects it
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(source, delimiter=",", comments=None, quotechar=None,
                          skiprows=skip, max_rows=rows, ndmin=2, dtype=np.float64)


def _may_split(source, n_rows: int, empty_line: bool) -> bool:
    """Whether the body may be parsed in two halves, the second in a child.

    Only when each half gets at least ``_SPLIT_MIN_ROWS`` rows, numpy
    reads the file by path, no line is empty, the process can fork and
    knows its CPU affinity, no other thread is alive, since a fork
    copies only the calling one, ``SIGCHLD`` is not ignored, since the
    kernel would then reap the child before this process could wait for
    it, and two CPUs are usable. An empty line would shift the halves:
    ``skiprows`` counts lines, but ``max_rows`` counts rows, so the
    first half would read a row of the second.
    """
    return (n_rows >= 2 * _SPLIT_MIN_ROWS and not empty_line
            and isinstance(source, str) and threading.active_count() == 1
            and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and signal.getsignal(signal.SIGCHLD) is not signal.SIG_IGN
            and usable_cpus() >= 2)


def _parse_split(source, skip: int, width: int, n_rows: int, cols: list[int],
                 response: int | None, mid: int) -> _Body | None:
    """X and y of the ``n_rows`` body rows, parsed split at ``mid``; or None.

    This process parses rows ``:mid``. When ``mid < n_rows``, one forked
    child parses rows ``mid:`` into an anonymous shared map and leaves by
    ``os._exit``, with status 0 only if it parsed ``n_rows - mid`` rows
    of ``width`` cells. The child is killed first if this process's own
    half raised, and reaped in any case; one reaped elsewhere
    (``SIGCHLD`` ignored) counts as failed. With ``mid == n_rows``
    nothing is mapped or forked: that is the serial parse. None if the
    fork or either half failed, ``loadtxt`` refused a cell, or a half
    has another shape. Otherwise each half, freed once gathered, gives
    its rows of the columns ``cols`` to a row-major X and of the column
    ``response``, if any, to y: the one copy out of the parsed halves.
    """
    tail = n_rows - mid
    with (mmap.mmap(-1, tail * width * 8) if tail else nullcontext()) as shared:
        pid, head, ok = 0, None, True
        if tail:
            try:
                pid = os.fork()
            except OSError:
                return None
            if not pid:
                status = 1
                try:
                    rows = _loadtxt(source, skip + mid)
                    if rows.shape == (tail, width):
                        np.ndarray(rows.shape, buffer=shared)[...] = rows
                        status = 0
                finally:
                    os._exit(status)
        try:
            head = _loadtxt(source, skip, mid if tail else None)
        except ValueError:
            pass  # a cell loadtxt refuses: the serial parse or the scan decides
        finally:
            if pid:
                if head is None:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass  # reaped already: waitpid counts it failed
                try:
                    ok = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
                except ChildProcessError:
                    ok = False
        if not ok or head is None or head.shape != (mid, width):
            return None
        X = np.empty((n_rows, len(cols)))
        y = None if response is None else np.empty(n_rows)
        halves = [head, np.frombuffer(shared).reshape(tail, width)] if tail else [head]
        del head
        start = 0
        while halves:
            rows = halves.pop(0)
            stop = start + len(rows)
            # every column is in range; mode="raise" would buffer the output
            np.take(rows, cols, axis=1, out=X[start:stop], mode="clip")
            if y is not None:
                y[start:stop] = rows[:, response]
            start = stop
            del rows  # no view of the map outlives it
    return X, y


def _load_body(path, skip: int, width: int, n_rows: int, cols: list[int],
               response: int | None, empty_line: bool) -> _Body | None:
    """X (the columns ``cols``) and y (the column ``response``, if any)
    of the lines below the header, parsed in one vectorised pass; or None.

    The result stands only where :func:`_scan_cells` would give the
    same arrays: ``n_rows`` rows (``loadtxt`` skips blank lines, the
    scanner rejects them) of ``width`` cells each, and finite values in
    the named columns. ``loadtxt`` converts with the parser behind
    ``float()`` but takes no underscore, quote or non-ASCII digit, so
    every cell it accepts the scanner reads to the same bits. A byte
    that does not decode makes ``loadtxt`` raise, and the scan then
    names the file. numpy opens the file itself where
    :func:`_loadtxt_source` allows. X and y are row-major, as a
    :class:`DataMatrix` keeps them, so it takes them without a copy.

    Where :func:`_may_split` allows, the body is split at its middle row
    and the second half is parsed in one forked child
    (:func:`_parse_split`). Each half converts its cells as the serial
    pass does, so the result is the same bit for bit; if the split
    fails, the serial pass (the same call split at ``n_rows``) runs
    instead and decides.
    """
    with _loadtxt_source(path) as source:
        body = None
        if _may_split(source, n_rows, empty_line):
            body = _parse_split(source, skip, width, n_rows, cols, response, n_rows // 2)
        if body is None:
            body = _parse_split(source, skip, width, n_rows, cols, response, n_rows)
    if body is None or not all(np.isfinite(a).all() for a in body if a is not None):
        return None
    return body


def read_csv(path, covariates: list[str] | None = None,
             response: str | None = None, log_response: bool = False) -> DataMatrix:
    """Load a headered CSV into a DataMatrix.

    ``covariates`` names the covariate columns (default: every column
    except the response), each at most once and never the response;
    either is a :class:`ConfigError` naming the column. ``response``
    names the response column, if any. ``log_response`` applies a
    natural log to the response at ingestion time.

    Cells are plain decimal or exponent numerals, surrounding spaces
    allowed. Malformed cells (underscores included), non-finite cells,
    blank lines and rows whose width differs from the header's raise
    :class:`DataFormatError` naming 1-based (row, column) file
    coordinates, data rows counted from 1 below the header. Cells of
    columns not named are not parsed.

    A well-formed body is parsed in one vectorised ``np.loadtxt`` pass,
    a large body's second half in one forked child where two CPUs are
    usable, to the same bits; whatever that pass cannot vouch for is
    scanned cell by cell, which returns the same arrays (quoted numerals
    and non-ASCII digits read as ``float()`` reads them) or names the
    offending cell.

    Argument errors that need no look at the file (``log_response``
    without a response, a covariate named twice, the response named as
    a covariate) are raised before any byte of it is read.
    """
    if log_response and response is None:
        raise ConfigError("log_response requires a response column")
    if covariates is not None:
        twice = sorted({c for c in covariates if covariates.count(c) > 1})
        if twice:
            raise ConfigError(f"covariate column(s) {twice} named more than once")
        if response in covariates:
            raise ConfigError(
                f"column {response!r} cannot be both the response and a covariate"
            )
    header, header_lines, n_rows, empty_line = _read_header(path)
    if not n_rows:
        raise DataFormatError(f"{path} has a header but no data rows")
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DataFormatError(
            f"duplicate header column(s) {dupes} make name lookup ambiguous"
        )
    col_of = {name: i for i, name in enumerate(header)}

    if response is not None and response not in col_of:
        raise ConfigError(
            f"response column {response!r} not in header {header}"
        )
    if covariates is None:
        cov_names = [h for h in header if h != response]
    else:
        missing = [c for c in covariates if c not in col_of]
        if missing:
            raise ConfigError(
                f"covariate column(s) {missing} not in header {header}"
            )
        cov_names = list(covariates)
    if not cov_names:
        raise ConfigError("no covariate columns left after excluding the response")

    X, y = (_load_body(path, header_lines, len(header), n_rows,
                       [col_of[name] for name in cov_names], col_of.get(response),
                       empty_line)
            or _scan_cells(path, col_of, cov_names, response))
    if log_response:  # so y is not None
        bad = np.flatnonzero(y <= 0.0)
        if bad.size:
            i = int(bad[0])
            raise DataFormatError(
                f"log transform needs a positive response, got {y[i]!r} "
                f"at row {i + 1}",
                row=i + 1, col=col_of[response] + 1,
            )
        y = np.log(y)
    return DataMatrix(X, y)


# a record cell's (writer, reader), keyed by the annotated type of its field;
# the repr of a plain float reads back to the same bits
_CODECS = {
    int: (str, int),
    str: (str, str),
    float: (lambda v: repr(float(v)), float),
    float | None: (lambda v: "" if v is None else repr(float(v)),
                   lambda text: None if text == "" else float(text)),
    bool: (lambda v: "true" if v else "false", lambda text: text == "true"),
}


def _fields(record_type) -> tuple[tuple, ...]:
    """(name, writer, reader) of each field of ``record_type``, in order."""
    hints = typing.get_type_hints(record_type)
    return tuple((f.name, *_CODECS[hints[f.name]])
                 for f in dataclass_fields(record_type))


_RECORD_FIELDS, _TIMING_FIELDS = _fields(MetricsRecord), _fields(TimingRecord)
RECORD_COLUMNS = tuple(name for name, _, _ in _RECORD_FIELDS)
TIMING_COLUMNS = tuple(name for name, _, _ in _TIMING_FIELDS)


def _json_paths(path) -> tuple[Path, Path]:
    """The CSV and JSON paths of ``path``: ``.csv`` or ``.json`` at its end
    is dropped, any other suffix is part of the name. A path with no file
    name (``''``, ``'.'``) is a :class:`DataFormatError`."""
    base = Path(path)
    if not base.name:
        raise DataFormatError(f"cannot write {path}: the path names no file")
    if base.suffix in (".csv", ".json"):
        base = base.with_suffix("")
    return base.with_name(base.name + ".csv"), base.with_name(base.name + ".json")


def _write_pair(path, header, rows, summary: dict) -> tuple[Path, Path]:
    """Write ``header`` and ``rows`` as CSV, then ``summary`` as JSON beside it."""
    csv_path, json_path = _json_paths(path)
    with _opened(csv_path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    with _opened(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def _record_rows(records, fields):
    return ([write(getattr(rec, name)) for name, write, _ in fields] for rec in records)


def write_results(records, summary: dict, path) -> tuple[Path, Path]:
    """Write a records CSV and its JSON summary; returns both paths.

    ``path`` may point at the CSV or the JSON, or name both without a
    suffix; any suffix other than ``.csv`` or ``.json`` is part of the
    name, so ``run.a`` writes ``run.a.csv`` and ``run.a.json``. Column
    order is fixed, floats are written at round-trip precision, and an
    empty record list still produces the header line. A path that names
    no file, or a file that cannot be written, is a
    :class:`DataFormatError` naming it.
    """
    return _write_pair(path, RECORD_COLUMNS,
                       _record_rows(records, _RECORD_FIELDS), summary)


def read_records(path) -> list[MetricsRecord]:
    """Read back a records CSV written by :func:`write_results`.

    A file that cannot be read, a foreign header, a row of another width
    or a cell its field's type refuses is a :class:`DataFormatError`,
    the last two naming the row, a refused cell its column too.
    """
    rows = _read_rows(path)
    header = next(rows)
    if tuple(header) != RECORD_COLUMNS:
        raise DataFormatError(
            f"unexpected records header {header}, wanted {list(RECORD_COLUMNS)}"
        )
    out = []
    for i, row in enumerate(rows, 1):
        cells = enumerate(zip(row, _RECORD_FIELDS), 1)
        out.append(MetricsRecord(*(_read_cell(read, cell, i, j, name)
                                   for j, (cell, (name, _, read)) in cells)))
    return out


def write_timing(records, summary: dict, path) -> tuple[Path, Path]:
    """Write timing records the same way :func:`write_results` does,
    raising what it raises."""
    return _write_pair(path, TIMING_COLUMNS,
                       _record_rows(records, _TIMING_FIELDS), summary)


def write_selection(result, summary: dict, path) -> tuple[Path, Path]:
    """Write selected row indices (one per line) plus the JSON summary,
    raising what :func:`write_results` raises. A condition number that is
    not finite (a singular block) is written as ``null``: JSON has no
    token for infinity."""
    doc = dict(summary)
    doc["k_star"] = int(result.k_star)
    doc["elapsed"] = float(result.elapsed)
    doc["condition_trace"] = [float(v) if math.isfinite(v) else None
                              for v in result.condition_trace]
    return _write_pair(path, ["index"], ([int(i)] for i in result.indices), doc)


# rows converted to Python floats at a time by write_dataset
_WRITE_BLOCK_ROWS = 8192


def write_dataset(data: DataMatrix, path) -> Path:
    r"""Dump covariates (x1..xp) and optional response (y) to CSV.

    Each cell is the ``repr`` of its float and each line ends in
    ``\r\n``: the bytes ``csv.writer`` writes for the same rows. A file
    that cannot be written is a :class:`DataFormatError` naming it.
    """
    out = Path(path)
    header = [f"x{j + 1}" for j in range(data.p)]
    columns = [data.values]
    if data.response is not None:
        header.append("y")
        columns.append(data.response)
    table = np.column_stack(columns)
    with _opened(out, "w") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, data.n, _WRITE_BLOCK_ROWS):
            block = table[start:start + _WRITE_BLOCK_ROWS].tolist()
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in block)
    return out
