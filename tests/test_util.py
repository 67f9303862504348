"""Atomic writes: what reaches the disk, and in which order."""

import os
import stat

import pytest

from neardup import util


def test_atomic_write_fsyncs_file_then_renames_then_fsyncs_directory(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        real_fsync(fd)

    def replace(src, dst):
        events.append("rename")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    util.atomic_write_bytes(tmp_path / "out.bin", b"payload")
    assert events == ["fsync file", "rename", "fsync dir"]
    assert (tmp_path / "out.bin").read_bytes() == b"payload"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_atomic_write_failure_leaves_target_and_no_temp_file(tmp_path, monkeypatch):
    (tmp_path / "out.bin").write_bytes(b"old")

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError):
        util.atomic_write_bytes(tmp_path / "out.bin", b"new")
    assert (tmp_path / "out.bin").read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.bin"]
