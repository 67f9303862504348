"""Atomic file writes, a bounds-checked reader for binary files, and lookups
in sorted arrays."""

import json
import os
import struct
import tempfile

import numpy as np

from .errors import FormatError


class ByteReader:
    """Sequential reads from a file's bytes; running past the end is a
    FormatError naming the file, never a struct or numpy error."""

    def __init__(self, blob: bytes, path, offset: int = 0):
        self.blob = blob
        self.path = path
        self.offset = offset

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


def find_sorted(keys: np.ndarray, wanted) -> tuple:
    """Position of each wanted value in the sorted array keys, and a mask of
    the ones that are there."""
    wanted = np.asarray(wanted, dtype=keys.dtype).reshape(-1)
    pos = np.searchsorted(keys, wanted)
    found = pos < keys.size
    found[found] = keys[pos[found]] == wanted[found]
    return pos, found


def first_repeat(values: np.ndarray) -> list:
    """[row, earlier row] of the first value equal to an earlier one, or []."""
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)
    repeats = np.flatnonzero(first[inverse] != np.arange(values.size))
    return [int(repeats[0]), int(first[inverse[repeats[0]]])] if repeats.size else []
