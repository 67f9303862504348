"""Atomic file writes, a bounds-checked reader for binary files, a column
reader for tab-separated and CSV files, lookups in sorted arrays, the pairs
within groups, the k best rows of each group, and the stage timer behind
-v."""

import csv
import json
import logging
import os
import struct
import tempfile
import time
import warnings
from itertools import repeat

import numpy as np

from .errors import DataError, FormatError

log = logging.getLogger("neardup")


class ByteReader:
    """Sequential reads from a file's bytes; running past the end, or
    stopping short of it, is a FormatError naming the file, never a struct
    or numpy error."""

    def __init__(self, blob: bytes, path, offset: int = 0):
        self.blob = blob
        self.path = path
        self.offset = offset

    @classmethod
    def open(cls, path, magic: bytes, version: int, kind: str, blob=None) -> "ByteReader":
        """A reader of path's bytes, or of blob when given, positioned after
        the file's magic and u16 version; FormatError unless both are the
        ones given."""
        if blob is None:
            with open(path, "rb") as fh:
                blob = fh.read()
        if blob[: len(magic)] != magic:
            raise FormatError(f"{path}: bad magic, expected {magic!r} ({kind} file)")
        r = cls(blob, path, len(magic))
        (found,) = r.unpack("<H")
        if found != version:
            raise FormatError(
                f"{path}: unsupported version {found}, expected {version}; "
                f"this release cannot read {kind} version {found}"
            )
        return r

    def done(self) -> None:
        """FormatError if any byte is left unread."""
        if self.remaining:
            raise FormatError(
                f"{self.path}: {self.remaining} bytes left over after the {self.offset} the header describes"
            )

    @property
    def remaining(self) -> int:
        return len(self.blob) - self.offset

    def _advance(self, n: int) -> int:
        if n > self.remaining:
            raise FormatError(
                f"{self.path}: truncated: needs {n} bytes at offset {self.offset}, "
                f"{self.remaining} left"
            )
        start = self.offset
        self.offset += n
        return start

    def take(self, n: int) -> bytes:
        start = self._advance(n)
        return self.blob[start : start + n]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.blob, self._advance(struct.calcsize(fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        """A read-only view of the next count items."""
        start = self._advance(np.dtype(dtype).itemsize * count)
        return np.frombuffer(self.blob, dtype=dtype, count=count, offset=start)


class StageTimer:
    """The stage log of -v: each call logs "<stage> <s>s: <detail>" at INFO
    for the seconds since the previous call, or since the timer was made,
    and keeps them in seconds under the stage's name."""

    def __init__(self):
        self.seconds = {}
        self._t0 = time.perf_counter()

    def __call__(self, stage: str, detail: str, *args) -> None:
        now = time.perf_counter()
        self.seconds[stage] = now - self._t0
        log.info("%s %.3fs: " + detail, stage, self.seconds[stage], *args)
        self._t0 = now


TEMP_PREFIX = ".tmp-"


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write via a temp file in the same directory plus rename, so readers
    never observe a partial file and failures leave the target untouched.

    The temp file is fsynced before the rename and the directory after it:
    without the first a power loss can persist the rename before the data,
    without the second it can lose the rename itself.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=TEMP_PREFIX, suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# column specs of read_columns: an unsigned 64-bit id, and a field kept as text
U64 = (int, np.uint64)
TEXT = (None, None)


def read_columns(path, columns, exact: bool = True, header: tuple = None, check=None) -> list:
    """One array per (parse, dtype) of columns from the leading fields of
    every non-blank row, in file order; a column whose parse is None comes
    back as its list of field strings.

    The rows are the lines of a headerless tab-separated file or, when
    header is given, the csv module's rows after a header row that starts
    with those names. check(columns, flag) may flag the rows it rejects
    through flag(positions, message), positions ascending and message(p)
    the text for position p, and returns the columns to give back.

    Undecodable bytes are a DataError naming the file. So is the first bad
    row, as <path>:<line>: a field count other than len(columns) (below it,
    when exact is false), a field that parse or dtype rejects (the first on
    its row), or a row check flags.
    """
    k = len(columns)
    try:
        with open(path, "r", encoding="utf-8", newline=None if header is None else "") as fh:
            raw = fh.read().split("\n") if header is None else list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from None
    if header is None:
        first, noun = 1, "tab-separated fields"
        rows = list(filter(None, raw))
        width = np.fromiter(map(str.count, rows, repeat("\t")), dtype=np.int64, count=len(rows)) + 1
        if not exact:  # rows may hold more fields than are read
            rows = [line.split("\t", k) for line in rows]
    else:
        if not raw or [h.strip() for h in raw[0][:k]] != list(header):
            raise DataError(f"{path}: expected header {','.join(header)}")
        first, noun, raw = 2, "columns", raw[1:]
        rows = list(filter(None, raw))
        width = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    bad = [len(rows), ""]  # the first bad row and its message

    def flag(at, message):
        if len(at) and at[0] < bad[0]:
            bad[:] = [int(at[0]), message(int(at[0]))]

    need = f"{'' if exact else 'at least '}{k} {noun}"
    flag(np.flatnonzero(width != k if exact else width < k), lambda r: f"expected {need}")
    if header is None and exact:
        fields = "\t".join(rows[: bad[0]]).split("\t") if bad[0] else []
    else:
        fields = [field for row in rows[: bad[0]] for field in row[:k]]
    out = [
        fields[c::k] if parse is None else parse_column(fields[c::k], parse, dtype, flag)
        for c, (parse, dtype) in enumerate(columns)
    ]
    if bad[1]:  # the rows before the first bad one, in every column
        out = [column[: bad[0]] for column in out]
    if check is not None:
        out = check(out, flag)
    if bad[1]:
        line_no = [n for n, row in enumerate(raw, first) if row][bad[0]]
        raise DataError(f"{path}:{line_no}: {bad[1]}")
    return out


def parse_column(values: list, parse, dtype, flag) -> np.ndarray:
    """values through parse into a dtype array. The first value that fails,
    or that dtype cannot hold, is flagged with its row and message, and only
    the rows before it come back."""
    with warnings.catch_warnings():
        # NumPy 1.x wraps a negative int into an unsigned dtype with a
        # DeprecationWarning where NumPy 2 raises OverflowError
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.fromiter(map(parse, values), dtype=dtype, count=len(values))
        except (ValueError, OverflowError, DeprecationWarning):
            pass
        for row, value in enumerate(values):
            try:
                np.array([parse(value)], dtype=dtype)
            except (ValueError, OverflowError, DeprecationWarning) as exc:
                flag([row], lambda r: str(exc))
                return np.fromiter(map(parse, values[:row]), dtype=dtype, count=row)


def find_sorted(keys: np.ndarray, wanted) -> tuple:
    """Position of each wanted value in the sorted array keys, and a mask of
    the ones that are there."""
    wanted = np.asarray(wanted, dtype=keys.dtype).reshape(-1)
    pos = np.searchsorted(keys, wanted)
    found = pos < keys.size
    found[found] = keys[pos[found]] == wanted[found]
    return pos, found


def pairs_within(sizes) -> tuple:
    """Every pair (i, j), i < j, of positions in the same group, for groups
    of the given sizes laid out one after another: group by group, each in
    upper-triangle order, as two int64 arrays."""
    sizes = np.asarray(sizes, dtype=np.int64)
    later = np.repeat(np.cumsum(sizes), sizes) - 1 - np.arange(sizes.sum())
    ia = np.repeat(np.arange(later.size), later)
    ib = ia + 1 + np.arange(ia.size) - np.repeat(np.cumsum(later) - later, later)
    return ia, ib


def top_in_groups(group, score, tie, k: int) -> np.ndarray:
    """Positions of each group's k highest-scoring rows, equal scores going
    to the smaller tie, in (group, rank) order. Scores are signed integers
    or floats, compared as numbers."""
    group = np.asarray(group)
    order = np.lexsort((tie, -np.asarray(score), group))
    group = group[order]
    first = np.r_[True, group[1:] != group[:-1]][: order.size]
    rank = np.arange(order.size)
    rank -= np.maximum.accumulate(np.where(first, rank, 0))
    return order[rank < k]


def first_repeat(values: np.ndarray) -> list:
    """[row, earlier row] of the first value equal to an earlier one, or []."""
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)
    repeats = np.flatnonzero(first[inverse] != np.arange(values.size))
    return [int(repeats[0]), int(first[inverse[repeats[0]]])] if repeats.size else []
