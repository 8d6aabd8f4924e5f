"""German credit data ingestion and subpopulation splitting.

The reference input is the numeric German credit file: a comma-separated
UTF-8 table of 1000 rows and 21 columns, one header row, every cell a
number. The target column (``kredit``) is 1 for creditworthy borrowers and
0 otherwise; the account-status column (``laufkont``) separates bank
customers (value > 1) from non-customers (value = 1).

A CSV body is read by numpy's C parser. One scan of the file, in 1 MiB
chunks, first counts its lines, cuts the body at line starts into parts
of about ``_PART_BYTES`` (1 MiB) and tells whether the body is *plain*:
no carriage return, no ``"`` and no blank line, so that each physical
line is one row. A plain body of at least ``_FORK_BYTES`` (16 MiB; on 2
CPUs two processes lost below about 6 MiB and won from 12 MiB) is parsed
in two processes when two CPUs are usable and the platform starts
processes by fork: the table is an anonymous shared mapping, this
process claims and parses parts from the front and a forked child from
the back until they meet, each in blocks of ``_BLOCK_CELLS`` cells with
``np.loadtxt``, so that a process on a slower CPU parses fewer parts
instead of holding the other up. Any other body, and one whose parts
did not all give every line as a row, is handed to numpy by path, past
the header, so that its C reader pulls the text in chunks, bounded by
the line count, so that it allocates its table once. A body the parser rejects, or whose table fails the label or
finiteness check, is read cell by cell with ``float()``, which words the
error with its row and column and accepts the few spellings ``loadtxt``
does not. All routes give bitwise the same table.

The loaders hand out the parsed table's own buffer. :func:`load_csv`
gathers the feature columns over its front, in place, after copying the
labels out. :func:`load_subpopulations` copies the labels and the small
target side out, then gathers the source rows there. A source sample
thus sits in the parse buffer. Its unused tail, the share of the label
and split columns and of the target rows (about 2 of 18 MB on a
100,000-row source with 20 features), lives as long as the source does
when one process parsed the body; a shared mapping from two processes
hands its whole pages past the features back to the system
(``madvise(MADV_REMOVE)``, where it is to be had).
:func:`split_by_account_status` copies, because its caller owns the
sample.

Learning/test partitions are drawn with numpy's Philox bit generator
(philox4x64), a published counter-based PRNG, keyed by
``(seed, learning_size, repetition)`` so that every partition is
reproducible across runs, platforms, and process counts.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import mmap
import os
import signal
import threading
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .exceptions import DataError

DEFAULT_TARGET_COLUMN = "kredit"
DEFAULT_SPLIT_COLUMN = "laufkont"

# Cells (rows x columns) that a transient array may hold: 8 bytes x 2**16
# cells = 512 KiB. The loaders gather the kept columns in row blocks within
# it; logistic.py says how the Newton calls stay within it.
_BLOCK_CELLS = 2**16


@dataclass(frozen=True)
class LabeledSample:
    """A feature matrix plus binary labels for one subpopulation.

    ``features`` has shape (n, d), ``labels`` shape (n,) with values in
    {0, 1}.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=float)
        labels = np.asarray(self.labels)
        if feats.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        if labels.shape != (feats.shape[0],):
            raise DataError("labels must be a vector matching the row count")
        if feats.shape[0] == 0:
            raise DataError("empty dataset")
        # checked before the cast to int, which would turn 0.6 into 0
        if labels.dtype.kind not in "biuf" or not np.all((labels == 0) | (labels == 1)):
            raise DataError("labels must be 0 or 1")
        labels = labels.astype(int, copy=False)
        if len(self.feature_names) != feats.shape[1]:
            raise DataError("feature_names length must equal the column count")
        # a second copy of the split column would survive the split as a predictor
        for k, name in enumerate(self.feature_names):
            if name in self.feature_names[:k]:
                raise DataError(f"feature name {name!r} appears more than once")
        # read-only views: the caller's own arrays stay writable
        feats, labels = feats.view(), labels.view()
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_records(self) -> int:
        return self.features.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> tuple[int, int]:
        """(count of label 0, count of label 1)."""
        ones = int(self.labels.sum())
        return self.n_records - ones, ones

    def subset(self, indices: np.ndarray) -> "LabeledSample":
        return LabeledSample(self.features[indices], self.labels[indices], self.feature_names)


@dataclass(frozen=True)
class SplitPlan:
    """Repeated learning/test subsampling plan for the target subpopulation."""

    learning_size: int
    repetitions: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.learning_size < 1:
            raise DataError("learning_size must be positive")
        if self.repetitions < 1:
            raise DataError("repetitions must be >= 1")


def load_csv(path: str | Path, target_column: str = DEFAULT_TARGET_COLUMN) -> LabeledSample:
    """Load a numeric CSV with a header row into a LabeledSample.

    The target column supplies the binary label and is removed from the
    feature set. A leading UTF-8 byte-order mark is read as encoding, not
    as part of the first column name. numpy's C parser (``np.loadtxt``)
    reads the body, given the path so that it reads the file in chunks;
    when it rejects the body, or its table fails a check, the body is read
    row by row with ``float()``. That row loop accepts the cells
    ``loadtxt`` does not (``1_000``, full-width digits) and words every
    error. It alone reads a file that cannot be read twice (a pipe) and
    one named like a compressed file (``.gz``, ``.bz2``, ``.xz``,
    ``.lzma``), which numpy would decompress. Raises DataError for a
    missing, unreadable or non-UTF-8 file, a header naming a column twice,
    a missing target column, an unparseable or non-finite cell (reported
    with row and column, blank lines counted), a label other than 0 or 1,
    or an empty table.

    The features are the parsed table's own buffer, the label column
    gathered out in place.
    """
    table, header, mapping = _read_table(path, target_column)
    label = header.index(target_column)
    labels = table[:, label].astype(int)
    keep = [j for j in range(len(header)) if j != label]
    features = _gather_in_place(table, np.ones(len(table), dtype=bool), keep)
    _release_tail(mapping, features.nbytes)
    return LabeledSample(features, labels, tuple(header[j] for j in keep))


def load_subpopulations(
    path: str | Path,
    target_column: str = DEFAULT_TARGET_COLUMN,
    split_column: str = DEFAULT_SPLIT_COLUMN,
) -> tuple[LabeledSample, LabeledSample]:
    """``split_by_account_status(load_csv(path, target_column), split_column)``,
    from one parsed table.

    The file is read as :func:`load_csv` reads it and the split is checked
    as :func:`split_by_account_status` checks it, with the same errors.
    The target rows and both sides' labels are copied out first; the
    source rows are then gathered over the front of the table's own
    buffer, so the table and a copy of the source never coexist.
    """
    table, header, mapping = _read_table(path, target_column)
    label = header.index(target_column)
    _split_index(tuple(h for h in header if h != target_column), split_column)
    split = header.index(split_column)
    source = _source_mask(table[:, split], split_column)
    keep = [j for j in range(len(header)) if j not in (label, split)]
    names = tuple(header[j] for j in keep)
    labels = table[:, label].astype(int)
    target = LabeledSample(table[np.ix_(~source, keep)], labels[~source], names)
    labels = labels[source]
    features = _gather_in_place(table, source, keep)
    _release_tail(mapping, features.nbytes)
    return LabeledSample(features, labels, names), target


def _gather_in_place(table: np.ndarray, rows: np.ndarray, cols: list[int]) -> np.ndarray:
    """``table[np.ix_(rows, cols)]`` written over the front of ``table``'s
    own buffer; a C-contiguous view of it.

    ``table`` is C-contiguous, ``rows`` a boolean mask of its rows and
    ``cols`` ascending column indices. The rows are read in blocks of at
    most ``_BLOCK_CELLS`` output cells, in row order, each block copied
    out before it is written back. Output cell (i, j) lies at or before
    input cell (rows[i], cols[j]), and a block's output ends before the
    next block's input begins, so no cell is overwritten before it is
    read. ``table``'s contents past the view are left as they are.
    """
    height = max(1, _BLOCK_CELLS // max(1, len(cols)))
    count = int(np.count_nonzero(rows))
    out = table.reshape(-1)[: count * len(cols)].reshape(count, len(cols))
    done = 0
    for lo in range(0, len(table), height):
        picked = lo + np.flatnonzero(rows[lo : lo + height])
        out[done : done + len(picked)] = table[np.ix_(picked, cols)]
        done += len(picked)
    return out


def _release_tail(mapping: mmap.mmap | None, used: int) -> None:
    """Hand the whole pages of the shared ``mapping`` past its first
    ``used`` bytes back to the system; they then read as zeros. Skipped
    where there is no mapping, or ``madvise(MADV_REMOVE)`` is not to be
    had or fails."""
    start = -(-used // mmap.PAGESIZE) * mmap.PAGESIZE
    if mapping is None or not hasattr(mmap, "MADV_REMOVE") or start >= len(mapping):
        return
    try:
        mapping.madvise(mmap.MADV_REMOVE, start)
    except OSError:
        pass


def _read_table(
    path: str | Path, target_column: str
) -> tuple[np.ndarray, list[str], mmap.mmap | None]:
    """The parsed C-contiguous table, its header and, where two processes
    parsed it, the shared mapping that holds it: every column, the
    target's cells 0 or 1 and every other cell finite."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            return _parse_csv(f, target_column, path)
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def load_german_credit() -> LabeledSample:
    """Load the packaged numeric German credit file (1000 rows, 21 columns)."""
    with resources.as_file(resources.files("scorelink").joinpath("data/german.csv")) as path:
        return load_csv(path)


# numpy opens a path through np.lib._datasource, which decompresses a file by
# these suffixes; such a file is read by the row loop
_DECOMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")


def _parse_csv(f, target_column: str, path: Path) -> tuple[np.ndarray, list[str], mmap.mmap | None]:
    """Parse the file at ``path``, open as the text stream ``f`` (opened
    with ``newline=""``), into :func:`_read_table`'s table, header and
    mapping."""
    origin = str(path)
    reader = csv.reader(f)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{origin}: empty file") from None
    header = [h.strip() for h in header]
    for k, name in enumerate(header):
        if name in header[:k]:
            raise DataError(f"{origin}: column {name!r} appears more than once in the header")
    if target_column not in header:
        raise DataError(f"{origin}: target column {target_column!r} not in header")
    target_idx = header.index(target_column)

    # numpy reads the file past the header's physical lines: a quoted header
    # cell may hold a line break, and numpy's skiprows counts lines, as csv's
    # line_num does. ``f`` stays past the header for the row loop.
    if f.seekable() and path.suffix not in _DECOMPRESSED_SUFFIXES:
        body = _scan(path, reader.line_num)
        table = mapping = None
        if _two_parts(body):
            table, mapping = _parse_in_two(path, body, len(header)) or (None, None)
        if table is None:
            with warnings.catch_warnings():  # a header-only file is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                # blank lines are not rows; numpy warns that it once counted them
                warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
                try:
                    table = np.loadtxt(
                        str(path),
                        skiprows=reader.line_num,
                        max_rows=None if body is None else body.lines,
                        **_LOADTXT,
                    )
                except ValueError:
                    table = None
        if (
            table is not None
            and table.shape[0] > 0
            and table.shape[1] == len(header)
            and np.all((table[:, target_idx] == 0) | (table[:, target_idx] == 1))
            and np.isfinite(table).all()  # with 0/1 labels, a non-finite cell is a feature's
        ):
            return table, header, mapping
        del table, mapping  # not held through the row loop
    return _parse_rows(reader, header, target_idx, origin), header, None


_LOADTXT = dict(
    delimiter=",", comments=None, quotechar='"', ndmin=2, dtype=float, encoding="utf-8"
)

# Bytes of a plain body from which it is parsed in two processes. On a
# 2-CPU machine, over 21 alternating pairs per size on rows of 20 floats,
# two processes lost at 4 MiB and below (ratio 1.17-1.31), won 17-18 pairs
# at 6-8 MiB and all 21 at 12 MiB and above (ratio 0.62-0.68).
_FORK_BYTES = 2**24

# Bytes of a body part: the two processes claim parts of about this size,
# one at a time, so that a process on a slower or busier CPU takes fewer.
_PART_BYTES = 2**20


class _Body(NamedTuple):
    """What one read of a file tells of its body, the lines past the header."""

    start: int  # byte offset of the body's first line
    size: int  # bytes from there to the end of the file
    lines: int  # physical lines of the body
    plain: bool  # no '"' and no blank line: each physical line is one row
    # (first body line, its byte offset) of each part, then (lines, file size)
    parts: tuple[tuple[int, int], ...]


def _scan(path: Path, skip: int) -> _Body | None:
    """The body of the file at ``path`` past its first ``skip`` physical
    lines, read once in ``_HASH_CHUNK`` blocks; None if the file holds a
    carriage return, a line end that this count would miss.

    The body is cut into ``max(2, size // _PART_BYTES)`` parts of about
    equal bytes: each cut is the first line start at or past its share of
    the bytes, and a part is empty where no line starts in its share. The
    ``"`` and blank-line checks and the cuts cover the body only: a header
    may quote its names.

    Each row takes at least one line, so the body's lines bound its rows.
    Given that bound, ``np.loadtxt`` allocates its table once, at its
    final size when no line is blank, instead of growing it by
    reallocation. A process that loads the file again then asks for a
    block of the same size, which fits where the last table was freed;
    the growing table's larger blocks did not always fit, and a second
    table's worth of memory then stayed resident.
    """
    with open(path, "rb") as handle:
        end = os.fstat(handle.fileno()).st_size
        newlines, offset, previous = 0, 0, -2  # previous: the last line end read
        start, cuts, plain = None, [], True
        while chunk := handle.read(_HASH_CHUNK):
            if b"\r" in chunk:
                return None
            ends = offset + np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n"))
            if start is None and newlines + len(ends) >= skip:
                start = int(ends[skip - newlines - 1]) + 1
                count = max(2, (end - start) // _PART_BYTES)
                targets = start + (end - start) * np.arange(1, count) // count
            if start is not None:
                # a blank line's end follows the line end before it, the header's last included
                gaps = np.diff(ends[ends >= start - 1], prepend=previous)
                if np.any(gaps == 1) or chunk.find(b'"', max(0, start - offset)) >= 0:
                    plain = False
                for i in np.searchsorted(ends + 1, targets[len(cuts) :]):
                    if i == len(ends) or ends[i] + 1 == end:  # no line starts past the target here
                        break
                    cuts.append((newlines + int(i) + 1 - skip, int(ends[i]) + 1))
            if len(ends):
                previous = int(ends[-1])
            newlines += len(ends)
            offset += len(chunk)
    lines = newlines + (previous != offset - 1) - skip  # a last line without its line end
    if start is None:  # the header is the whole file
        return _Body(offset, 0, 0, plain, ((0, offset), (0, offset)))
    cuts += [(lines, end)] * (len(targets) + 1 - len(cuts))
    return _Body(start, end - start, lines, plain, ((0, start), *cuts))


def _two_parts(body: _Body | None) -> bool:
    """Whether to parse ``body`` in two processes: it is plain and large,
    two CPUs are usable, forking is this platform's default way to start
    a process, and this process runs no other Python thread, one that
    could hold a lock at the fork that the child would then wait on."""
    if not (body is not None and body.plain and body.size >= _FORK_BYTES and hasattr(os, "fork")):
        return False
    import multiprocessing  # here, not at import: it adds about 6 ms to importing scorelink

    return (
        multiprocessing.get_all_start_methods()[0] == "fork"
        and threading.active_count() == 1
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
    )


_PARENT, _CHILD = 1, 2  # owner byte of a part: 0 while no process holds it


def _parse_in_two(path: Path, body: _Body, width: int) -> tuple[np.ndarray, mmap.mmap] | None:
    """The plain body's table, ``body.lines`` x ``width``, and the mapping
    that holds it, or None if a part of it fails.

    The table is an anonymous shared mapping, followed by one owner byte
    per part. This process claims and parses parts from the first on, a
    forked child from the last back, each taking the next part until it
    meets one the other holds, so that each takes a share of the parts
    in proportion to its speed. The last part is the child's before the
    fork, so that both processes parse. Where both claim the same part at
    once, both parse it and write the same bytes. The child leaves
    through ``os._exit``, with status 0 only if every part it claimed gave
    its lines; this process then reaps it. SIGINT stays blocked in the
    child, so an interrupt reaches only this process, which kills and
    reaps the child on any exception before it returns.
    """
    count = len(body.parts) - 1
    shared = mmap.mmap(-1, body.lines * width * 8 + count)
    table = np.frombuffer(shared, dtype=float, count=body.lines * width)
    table = table.reshape(body.lines, width)
    owner = np.frombuffer(shared, dtype=np.uint8, offset=table.nbytes)
    owner[-1] = _CHILD
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        pid = os.fork()
    except OSError:  # no second process to be had
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return None
    if pid == 0:
        status = 1
        try:
            warnings.simplefilter("error")  # a warning fails the part, unprinted
            status = 0 if _parse_parts(path, body.parts, table, owner, _CHILD) else 1
        finally:
            os._exit(status)
    done = False
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        done = _parse_parts(path, body.parts, table, owner, _PARENT)
    except ValueError:  # loadtxt rejected a cell or a row's width
        pass
    finally:
        if not done:
            os.kill(pid, signal.SIGKILL)
        done = os.waitpid(pid, 0)[1] == 0 and done
    return (table, shared) if done else None


def _parse_parts(
    path: Path, parts: tuple[tuple[int, int], ...], table: np.ndarray, owner: np.ndarray, me: int
) -> bool:
    """Claim and parse ``parts`` into ``table``'s rows, the first onward if
    ``me`` is ``_PARENT``, the last backward if it is ``_CHILD``, until a
    part the other process holds; whether each part parsed gave its lines.

    A process meets the other's claim only where the other has already
    claimed every part beyond, so between them the two parse every part.
    """
    order = range(len(owner)) if me == _PARENT else range(len(owner) - 1, -1, -1)
    for i in order:
        if owner[i] not in (0, me):
            break
        owner[i] = me
        (row, offset), (stop, _) = parts[i], parts[i + 1]
        if not _parse_lines(path, offset, table[row:stop]):
            return False
    return True


def _parse_lines(path: Path, offset: int, out: np.ndarray) -> bool:
    """Parse ``len(out)`` physical lines of the file at ``path`` from byte
    ``offset`` into ``out``'s rows; whether each line gave one row of
    ``out``'s width.

    The lines are parsed in blocks of at most ``_BLOCK_CELLS`` cells, each
    written into its rows, so no table of the part is held besides ``out``.
    """
    height = max(1, _BLOCK_CELLS // out.shape[1])
    with open(path, "rb") as handle:
        handle.seek(offset)
        for lo in range(0, len(out), height):
            rows = out[lo : lo + height]
            block = np.loadtxt(itertools.islice(handle, len(rows)), **_LOADTXT)
            if block.shape != rows.shape:
                return False
            rows[...] = block
    return True


def _parse_rows(reader, header, target_idx, origin: str) -> np.ndarray:
    """The body after the header as a table, one ``float()`` per cell, row
    by row."""
    rows = []
    blank = []  # reader indices of skipped empty lines
    for i, row in enumerate(reader):
        if not row:
            blank.append(i)
            continue
        if len(row) != len(header):
            raise DataError(f"{origin}: row {i + 2} has {len(row)} cells, expected {len(header)}")
        values = []
        for j, cell in enumerate(row):
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{origin}: cell at row {i + 2}, column {header[j]!r} is not numeric: {cell!r}"
                ) from None
        label = values[target_idx]
        if label not in (0.0, 1.0):
            raise DataError(f"{origin}: row {i + 2}: label must be 0 or 1, got {label}")
        rows.append(values)

    if not rows:
        raise DataError(f"{origin}: empty dataset (header only)")
    table = np.array(rows)
    del rows  # the parsed rows are the peak memory of loading; the mask comes after
    finite = np.isfinite(table)  # the labels are 0 or 1, so finite
    if not finite.all():
        k, j = np.argwhere(~finite)[0]
        value = table[k, j]
        for i in blank:  # k becomes the reader index of the k-th data row
            if i <= k:
                k += 1
        raise DataError(f"{origin}: cell at row {k + 2}, column {header[j]!r} is not finite: {value}")
    return table


def write_csv(
    sample: LabeledSample, path: str | Path, target_column: str = DEFAULT_TARGET_COLUMN
) -> None:
    """Write a sample back to CSV with the label as the last column."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(list(sample.feature_names) + [target_column])
        for x, y in zip(sample.features, sample.labels):
            writer.writerow([_format_number(v) for v in x] + [int(y)])


def _format_number(v: float) -> str:
    """Text that reads back as bitwise ``v``.

    Integral values below 2**53 are written as integers, so that codes
    stay ``2``, not ``2.0``; -0.0 and larger values are written by
    ``repr``, which keeps the sign of zero and needs no 301-digit integer
    for 1e300.
    """
    v = float(v)
    negative_zero = v == 0.0 and math.copysign(1.0, v) < 0.0
    if v.is_integer() and abs(v) < 2**53 and not negative_zero:
        return str(int(v))
    return repr(v)


_HASH_CHUNK = 2**20


def file_sha256(path: str | Path) -> str:
    """Hex sha256 of the file's bytes, read ``_HASH_CHUNK`` bytes at a time.

    Each chunk is dropped before the next read, so at most one is held. A
    chunk is a fresh read, not a preallocated buffer, because a zero-filled
    buffer would make all of its pages resident however small the file.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(_HASH_CHUNK):
            digest.update(chunk)
            del chunk
    return digest.hexdigest()


def split_by_account_status(
    sample: LabeledSample, split_column: str = DEFAULT_SPLIT_COLUMN
) -> tuple[LabeledSample, LabeledSample]:
    """Separate customers (split column > 1) from non-customers (= 1).

    The split column is removed from the predictors of both outputs: it is
    constant on the non-customer side, so its coefficient could never be
    estimated from a target sample. Split codes must be integers >= 1.
    Both outputs are copies of the sample's rows.
    """
    col = _split_index(sample.feature_names, split_column)
    source = _source_mask(sample.features[:, col], split_column)
    keep = [j for j in range(sample.dimension) if j != col]
    names = tuple(sample.feature_names[j] for j in keep)
    return tuple(
        LabeledSample(sample.features[np.ix_(mask, keep)], sample.labels[mask], names)
        for mask in (source, ~source)
    )


def _split_index(feature_names: tuple[str, ...], split_column: str) -> int:
    if split_column not in feature_names:
        raise DataError(f"split column {split_column!r} not among features")
    return feature_names.index(split_column)


def _source_mask(values: np.ndarray, split_column: str) -> np.ndarray:
    """The customer rows (split code > 1), after checking that every code
    is an integer >= 1 and that both sides have a record."""
    if np.any(values < 1):
        bad = int(np.argmax(values < 1))
        raise DataError(f"split column {split_column!r} has value below 1 at record {bad}")
    fractional = values != np.floor(values)
    if np.any(fractional):
        bad = int(np.argmax(fractional))
        raise DataError(
            f"split column {split_column!r} has non-integer value {values[bad]} at record {bad}"
        )
    source = values > 1
    for mask, side in ((source, "source"), (~source, "target")):
        if not mask.any():
            raise DataError(f"empty subpopulation: no {side} records")
    return source


def _philox(seed: int, learning_size: int, repetition_index: int) -> np.random.Generator:
    # philox4x64 key = (seed, learning_size * 2^32 + repetition); both words mod 2^64
    sub = (int(learning_size) << 32) + int(repetition_index)
    key = np.array([int(seed) % 2**64, sub % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def split_rows(
    target: LabeledSample, plan: SplitPlan, repetition_index: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices (ascending) of one learning/test partition of the target.

    The learning rows are exactly ``plan.learning_size`` rows drawn
    without replacement; the test rows are the complement. The partition
    is a pure function of (seed, learning_size, repetition_index).
    """
    if not 0 <= repetition_index < plan.repetitions:
        raise DataError(
            f"repetition_index {repetition_index} outside [0, {plan.repetitions})"
        )
    n = plan.learning_size
    total = target.n_records
    if n >= total:
        raise DataError(f"learning_size {n} must be smaller than the target size {total}")

    chosen = _philox(plan.seed, n, repetition_index).permutation(total)[:n]
    mask = np.zeros(total, dtype=bool)
    mask[chosen] = True
    return np.flatnonzero(mask), np.flatnonzero(~mask)


def draw_split(
    target: LabeledSample, plan: SplitPlan, repetition_index: int = 0
) -> tuple[LabeledSample, LabeledSample]:
    """Draw one learning/test partition of the target subpopulation.

    The samples hold the rows of :func:`split_rows`, in row order.
    """
    learning_rows, test_rows = split_rows(target, plan, repetition_index)
    return target.subset(learning_rows), target.subset(test_rows)

