"""Atomic writes: what reaches the disk, and in which order, for every
file writer; the one reader every binary file is loaded through; the
pairs-within-groups enumeration; and the k best rows of each group."""

import json
import os
import re
import stat
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neardup import (
    ClusterStore,
    EmbeddingSet,
    GroundTruth,
    LshConfig,
    SyntheticCorpusSpec,
    build_index,
    load_index,
    load_model,
    save_corpus,
    save_index,
    save_model,
    util,
    write_labels_csv,
)
from neardup.errors import FormatError, StoreError

from conftest import cluster_table, popcount_model


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


def _write(name, directory, variant):
    """One writer's output into directory; variant 0 and 1 write different bytes."""
    emb = EmbeddingSet.from_bits([3, 1 + variant], np.eye(2, 8, dtype=np.uint8))
    if name == "save_model":
        save_model(popcount_model(8, 2.5 + variant), directory / "model.ndml")
    elif name == "EmbeddingSet.save":
        emb.save(directory / "embeddings.ndem")
    elif name == "save_corpus":
        save_corpus(emb, GroundTruth(emb.ids, [3, 3 - 2 * variant]), directory, SyntheticCorpusSpec(seed=variant, d=8, flip_max=4))
    elif name == "write_labels_csv":
        write_labels_csv([(1, 3, 1 - variant)], directory / "labels.csv")
    else:
        save_index(build_index(emb, LshConfig(8, (0, 1, 2, 3), 2)), directory / "index.ndix")


@pytest.mark.parametrize(
    "name", ["EmbeddingSet.save", "save_corpus", "save_index", "save_model", "write_labels_csv"]
)
def test_writers_keep_the_earlier_file_when_the_rename_fails(tmp_path, monkeypatch, name):
    _write(name, tmp_path, 0)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        _write(name, tmp_path, 1)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert not [p for p in os.listdir(tmp_path) if p.startswith(util.TEMP_PREFIX)]


def test_text_writers_keep_their_line_ends(tmp_path):
    write_labels_csv([(1, 3, 1)], tmp_path / "labels.csv")
    assert (tmp_path / "labels.csv").read_bytes() == b"id_a,id_b,label\r\n1,3,1\r\n"
    save_corpus(EmbeddingSet.from_bits([3, 1], np.eye(2, 8, dtype=np.uint8)), GroundTruth([3, 1], [3, 3]), tmp_path)
    assert (tmp_path / "groundtruth.tsv").read_bytes() == b"3\t3\n1\t3\n"
    assert sorted(os.listdir(tmp_path)) == ["embeddings.ndem", "groundtruth.tsv", "labels.csv"]


def _binary_file(suffix, directory):
    """(bytes to cut, load(bytes), the error a refusal raises) of one small
    file of the format. A segment's bytes exclude its CRC: load writes them
    back under a fresh CRC, named by the manifest, so only reading the
    columns can refuse them."""
    emb = EmbeddingSet.from_bits([3, 1, 7], np.tri(3, 16, dtype=np.uint8))
    path = directory / f"file.{suffix}"

    def load_through(loader):
        def load(blob):
            path.write_bytes(blob)
            return loader(path)
        return load

    if suffix == "ndem":
        emb.save(path)
        return path.read_bytes(), load_through(EmbeddingSet.load), FormatError
    if suffix == "ndix":
        save_index(build_index(emb, LshConfig(16, (0, 1, 2, 3), 2)), path)
        return path.read_bytes(), load_through(load_index), FormatError
    if suffix == "ndml":
        save_model(popcount_model(16, 2.5), path)
        return path.read_bytes(), load_through(load_model), FormatError
    store = directory / "store"
    table = cluster_table([(3, 3, [(1, 0.9)]), (7, 7, [])])
    ClusterStore.initialize(table, emb, LshConfig(16, (0, 1, 2, 3), 2), directory=store)
    manifest = json.loads((store / "manifest.json").read_text())
    (ref,) = manifest["segments"]
    path = store / f"segment-{ref['first_batch']}-{ref['last_batch']}.ndsg"

    def load_segment(body):
        path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        ref["crc32"] = zlib.crc32(body)
        (store / "manifest.json").write_text(json.dumps(manifest))
        return ClusterStore.open(store)

    return path.read_bytes()[:-4], load_segment, StoreError


@pytest.mark.parametrize("suffix", ["ndem", "ndix", "ndml", "ndsg"])
def test_binary_files_refuse_every_prefix_and_a_trailing_byte(tmp_path, suffix):
    blob, load, error = _binary_file(suffix, tmp_path)
    load(blob)
    for bad in [blob[:n] for n in range(len(blob))] + [blob + b"\x00"]:
        with pytest.raises(error) as refusal:
            load(bad)
        # refused by the shared reader, before any check of the values read
        assert re.search(r"bad magic|truncated|left over", str(refusal.value)), str(refusal.value)


@pytest.mark.parametrize("sizes", [[], [1], [2], [5], [1, 1, 3], [4, 1, 2, 6], [0, 3, 0, 2]])
def test_pairs_within_matches_per_group_upper_triangles(sizes):
    ia, ib, start = [], [], 0
    for size in sizes:
        a, b = np.triu_indices(size, k=1)
        ia.append(a + start)
        ib.append(b + start)
        start += size
    got = util.pairs_within(sizes)
    want = [np.concatenate(x).astype(np.int64) if x else np.zeros(0, np.int64) for x in (ia, ib)]
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_top_in_groups_matches_a_sorted_oracle(data):
    n = data.draw(st.integers(0, 30))
    group = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))  # in any order
    if data.draw(st.booleans()):
        score = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), dtype=np.int64)
    else:
        value = st.one_of(st.sampled_from([-np.inf, -0.5, 0.25, 1.0]), st.floats(-1e6, 1e6))
        score = np.array(data.draw(st.lists(value, min_size=n, max_size=n)), dtype=np.float64)
    tie = 7 * np.array(data.draw(st.permutations(range(n))), dtype=np.uint64)  # distinct, not in row order
    k = data.draw(st.integers(0, 4))
    got = util.top_in_groups(np.array(group, dtype=np.uint64), score, tie, k)
    want = []
    for g in sorted(set(group)):
        rows = [i for i in range(n) if group[i] == g]
        want += sorted(rows, key=lambda i: (-score[i], tie[i]))[:k]
    assert got.tolist() == want
