"""Incremental ingestion: store lifecycle, NvO/NvN, merge semantics.

All distances are engineered through star_set flip lists, so the popcount
model gives exact, predictable scores everywhere.
"""

import fcntl
import json
import math
import os
import re
import shutil
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neardup import (
    ClusterStore,
    ClusterTable,
    DataError,
    EmbeddingSet,
    HeadMatches,
    LshConfig,
    NearDupeCluster,
    PipelineConfig,
    StoreError,
    assignments_to_tsv,
    merge,
    rand_index,
    run_incremental,
    run_nvn,
    run_nvo,
    static_clusters,
)
from neardup.clustering import clusters_to_tsv
from neardup.incremental import HEAD, LISTED, MEMBER, SegmentRef, _decode_segment, _encode_segment
from neardup.incremental import _COLUMNS
from neardup.index import serialize_index

from conftest import cluster_table, popcount_model, star_set

D = 64
SEED = 71
THETA = 9.5  # threshold 0.5 passes at hamming <= 9


def s(h):
    return 1.0 / (1.0 + math.exp(-8.0 * (THETA - h)))


def cfg():
    return PipelineConfig.from_dict(
        {
            "lsh": {"d": D, "m": 36, "term_bits": 6},
            "classifier": {"threshold": 0.5},
        }
    )


def lshc():
    return LshConfig(d=D, selected_bits=tuple(range(36)), term_bits=6)


@pytest.fixture
def model():
    return popcount_model(D, THETA)


def make_store(directory=None, k_aug=3):
    """Two stored clusters: {1 head, 2} and {10 head, 11}, far apart."""
    emb = star_set(
        D,
        SEED,
        [
            (1, []),
            (2, [0]),
            (10, list(range(20, 36))),
            (11, list(range(20, 36)) + [40]),
        ],
    )
    clusters = cluster_table([
        NearDupeCluster(1, 1, [(2, s(1))]),
        NearDupeCluster(10, 10, [(11, s(1))]),
    ])
    return ClusterStore.initialize(clusters, emb, lshc(), k_aug=k_aug, directory=directory)


def batch(members):
    return star_set(D, SEED, members)


def head_rows(heads):
    """(cluster, head, augmentation list) per head entry, by cluster id."""
    bounds = heads.aug_offsets.tolist()
    aug = list(zip(heads.aug_image.tolist(), heads.aug_score.tolist()))
    return [
        (c, h, aug[lo:hi])
        for c, h, lo, hi in zip(heads.cluster.tolist(), heads.head.tolist(), bounds, bounds[1:])
    ]


def augmentation(heads, cluster_id):
    (aug,) = [a for c, _, a in head_rows(heads) if c == cluster_id]
    return aug


def matches(*rows):
    """HeadMatches from (query, cluster, via, score) rows."""
    return HeadMatches(*zip(*rows)) if rows else HeadMatches()


def match_rows(found):
    return list(zip(found.query.tolist(), found.cluster.tolist(), found.via.tolist(), found.score.tolist()))


def test_initialize_freezes_top_k_augmentation():
    emb = star_set(D, SEED, [(1, []), (5, [0]), (6, [1]), (7, [2]), (8, [3])])
    cluster = NearDupeCluster(1, 1, [(5, 0.7), (6, 0.99), (7, 0.99), (8, 0.2)])
    store = ClusterStore.initialize(cluster_table([cluster]), emb, lshc(), k_aug=2)
    # top two by score, tie broken toward the smaller id
    assert head_rows(store.heads) == [(1, 1, [(6, 0.99), (7, 0.99)])]


def test_store_consistency_checks():
    emb = star_set(D, SEED, [(1, []), (2, [0]), (3, [1])])
    c1 = NearDupeCluster(1, 1, [(2, 0.9)])
    # every clustered image needs an embedding
    with pytest.raises(StoreError, match="no stored embedding"):
        ClusterStore.initialize(cluster_table([NearDupeCluster(1, 1, [(9, 0.5)])]), emb, lshc())
    # no unclustered embeddings allowed
    with pytest.raises(StoreError, match="clustered images"):
        ClusterStore.initialize(cluster_table([c1]), emb, lshc())
    # the same image cannot sit in two clusters, nor be its own cluster's member
    both = ClusterTable([1, 3, 2, 3], [1, 1, 2, 2], [True, False, True, False], [np.nan, 0.9, np.nan, 0.8])
    with pytest.raises(StoreError, match="more than one cluster"):
        ClusterStore.initialize(both, emb, lshc())
    with pytest.raises(StoreError, match="more than one cluster"):
        ClusterStore.initialize(cluster_table([(1, 1, [(1, 0.9)]), (3, 3, [(2, 0.9)])]), emb, lshc())
    # the stored entries follow the embedding rows, not the table order
    store = ClusterStore.initialize(cluster_table([NearDupeCluster(3, 3, []), c1]), emb, lshc(), k_aug=1)
    assert store.cluster.tolist() == [1, 1, 3]
    assert store.role.tolist() == [HEAD, LISTED, HEAD]
    assert np.array_equal(store.score, [np.nan, 0.9, np.nan], equal_nan=True)


def test_store_entries_are_aligned_with_the_embeddings():
    emb = star_set(D, SEED, [(1, []), (2, [0]), (3, [1])])
    store = ClusterStore(lshc(), emb, [1, 1, 3], [np.nan, 0.9, np.nan], [HEAD, LISTED, HEAD], k_aug=1)
    assert head_rows(store.heads) == [(1, 1, [(2, 0.9)]), (3, 3, [])]
    assert store.n_clusters == len(store.table) == 2
    assert store.clusters[1] == NearDupeCluster(1, 1, [(2, 0.9)])
    # one entry per stored image, and a role of 0, 1 or 2
    with pytest.raises(StoreError, match="as many"):
        ClusterStore(lshc(), emb, [1, 1], [np.nan, 0.9], [HEAD, MEMBER])
    with pytest.raises(StoreError, match="role 3"):
        ClusterStore(lshc(), emb, [1, 1, 3], [np.nan, 0.9, np.nan], [HEAD, 3, HEAD])
    # the derived table needs one head per cluster, the derived heads at
    # most k_aug listed members per cluster
    for role, k_aug in (([HEAD, HEAD, HEAD], 3), ([MEMBER, MEMBER, HEAD], 3), ([HEAD, LISTED, HEAD], 0)):
        with pytest.raises(DataError):
            ClusterStore(lshc(), emb, [1, 1, 3], [np.nan, 0.9, np.nan], role, k_aug=k_aug).heads


def test_store_save_open_round_trip(tmp_path):
    store = make_store(directory=tmp_path / "store")
    again = ClusterStore.open(tmp_path / "store")
    assert again.batch_id == 0
    assert again.k_aug == 3
    assert again.lsh_config == store.lsh_config
    assert clusters_to_tsv(again.clusters.values()) == clusters_to_tsv(store.clusters.values())
    assert head_rows(again.heads) == head_rows(store.heads)
    assert np.array_equal(again.embeddings.ids, store.embeddings.ids)
    assert np.array_equal(again.embeddings.bits_matrix(), store.embeddings.bits_matrix())
    assert serialize_index(again.head_index) == serialize_index(store.head_index)
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == ["manifest.json", "segment-0-0.ndsg"]


def test_reopened_store_writes_the_same_bytes(tmp_path):
    store = make_store(directory=tmp_path / "store")
    assert augmentation(store.heads, 1) == [(2, s(1))]
    again = ClusterStore.open(tmp_path / "store")
    assert head_rows(again.heads) == head_rows(store.heads)
    copy = ClusterStore(
        again.lsh_config, again.embeddings, again.cluster, again.score, again.role,
        again.k_aug, again.batch_id, tmp_path / "copy",
    )
    copy.save()
    for name in ("manifest.json", "segment-0-0.ndsg"):
        assert (tmp_path / "copy" / name).read_bytes() == (tmp_path / "store" / name).read_bytes()
    # saving again with nothing new rewrites only an identical manifest
    again.save()
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == ["manifest.json", "segment-0-0.ndsg"]


def read_manifest(directory):
    return json.loads((directory / "manifest.json").read_text())


def segment_path(directory, position=-1):
    return directory / SegmentRef(**read_manifest(directory)["segments"][position]).name


def rewrite_segment(directory, edit, position=-1):
    """Apply edit to the columns of one segment, then write it back with a
    valid checksum, named by the manifest as before."""
    manifest = read_manifest(directory)
    path = segment_path(directory, position)
    d, columns = _decode_segment(path.read_bytes(), path)
    columns = {k: np.array(v) for k, v in columns.items()}
    edit(columns)
    blob = _encode_segment(d, columns)
    path.write_bytes(blob)
    manifest["segments"][position].update(crc32=zlib.crc32(blob[:-4]), images=columns["ids"].size)
    (directory / "manifest.json").write_text(json.dumps(manifest))


def two_segment_store(directory, model):
    """make_store plus a one-image batch that joins cluster 1, in a segment
    of its own."""
    make_store(directory=directory)
    run_incremental(directory, batch([(100, [1])]), model, cfg())
    return ClusterStore.open(directory)


def test_store_open_rejects_bad_state(tmp_path, model):
    with pytest.raises(StoreError):
        ClusterStore.open(tmp_path / "nowhere")

    directory = tmp_path / "store"
    store = make_store(directory=directory)
    manifest = directory / "manifest.json"
    good = read_manifest(directory)
    manifest.write_text(json.dumps(dict(good, version=9)))
    with pytest.raises(StoreError):
        ClusterStore.open(directory)
    manifest.write_text(json.dumps(dict(good, version=1)))
    with pytest.raises(StoreError, match="version 1"):
        ClusterStore.open(directory)

    store.save()  # restore a good manifest
    ClusterStore.open(directory)
    # a missing segment, or another good segment under its name
    two_segment_store(tmp_path / "two", model)
    first, second = segment_path(tmp_path / "two", 0), segment_path(tmp_path / "two", 1)
    blob = first.read_bytes()
    first.write_bytes(second.read_bytes())
    with pytest.raises(StoreError, match="not the segment"):
        ClusterStore.open(tmp_path / "two")
    first.unlink()
    with pytest.raises(StoreError):
        ClusterStore.open(tmp_path / "two")
    first.write_bytes(blob)
    ClusterStore.open(tmp_path / "two")


# the earlier segment formats: every row's cluster id and score under one
# count (version 3); per-row image ids and head flags, per-cluster head
# entries and augmentation lists under four counts (version 2); and each
# segment's head postings as CSR columns between aug_count and is_head under
# two more (version 1)
_V2_COLUMNS = (
    ("ids", "<u8"), ("image", "<u8"), ("cluster", "<u8"), ("score", "<f8"), ("head_cluster", "<u8"),
    ("head_image", "<u8"), ("aug_image", "<u8"), ("aug_score", "<f8"), ("aug_count", "<u4"),
    ("is_head", "u1"), ("packed", "u1"),
)
_V1_COLUMNS = _V2_COLUMNS[:9] + (("terms", "<u4"), ("term_count", "<u4"), ("postings", "<u4")) + _V2_COLUMNS[9:]


def earlier_segment(version, store):
    """The one segment of a whole store in segment format 1, 2 or 3."""
    if version == 3:
        body = struct.pack("<4sHHQ", b"NDSG", 3, store.embeddings.d, len(store))
        columns = (store.embeddings.ids, store.cluster, store.score, store.role, store.embeddings.packed)
        body += b"".join(np.ascontiguousarray(c, dtype=dtype).tobytes() for c, (_, dtype) in zip(columns, _COLUMNS))
        return body + struct.pack("<I", zlib.crc32(body))
    table, heads, index = store.table, store.heads, store.head_index
    columns = dict(
        ids=store.embeddings.ids, image=table.image, cluster=table.cluster, score=table.score,
        head_cluster=heads.cluster, head_image=heads.head, aug_image=heads.aug_image, aug_score=heads.aug_score,
        aug_count=np.diff(heads.aug_offsets), is_head=table.head, packed=store.embeddings.packed,
        terms=index.terms, term_count=np.diff(index.offsets), postings=index.ids,
    )
    counts = [columns[name].size for name in ("ids", "image", "head_cluster", "aug_image", "terms", "postings")]
    counts, layout = (counts, _V1_COLUMNS) if version == 1 else (counts[:4], _V2_COLUMNS)
    body = struct.pack(f"<4sHH{len(counts)}Q", b"NDSG", version, store.embeddings.d, *counts)
    body += b"".join(np.ascontiguousarray(columns[name], dtype=dtype).tobytes() for name, dtype in layout)
    return body + struct.pack("<I", zlib.crc32(body))


def assert_refuses_segment_version(directory, version):
    """A store whose one segment is rewritten in an earlier format does not open."""
    store = make_store(directory=directory)
    manifest = read_manifest(directory)
    blob = earlier_segment(version, store)
    segment_path(directory).write_bytes(blob)
    manifest["segments"][-1]["crc32"] = zlib.crc32(blob[:-4])
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match=f"segment version {version}"):
        ClusterStore.open(directory)


def test_store_open_rejects_a_version_1_segment(tmp_path):
    assert_refuses_segment_version(tmp_path / "store", 1)


def test_store_open_rejects_a_version_2_segment(tmp_path):
    assert_refuses_segment_version(tmp_path / "store", 2)


def test_store_open_rejects_a_version_3_segment(tmp_path):
    assert_refuses_segment_version(tmp_path / "store", 3)


@st.composite
def segment_columns(draw):
    """d and the full columns of a segment: heads, members and listed
    members, each in a cluster named by its own id, another id of the
    segment or an id outside it; scores of any float, NaN included."""
    n = draw(st.integers(0, 12))
    d = draw(st.sampled_from([8, 64]))
    ids = np.array(draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n, unique=True)), dtype=np.uint64)
    role = np.array(draw(st.lists(st.sampled_from([MEMBER, HEAD, LISTED]), min_size=n, max_size=n)), dtype=np.uint8)
    cluster = ids.copy()
    for i in range(n):
        name = draw(st.sampled_from(["own", "inside", "outside"]))
        if name == "inside":
            cluster[i] = ids[draw(st.integers(0, n - 1))]
        elif name == "outside":
            cluster[i] = draw(st.integers(0, 2**64 - 1))
    score = np.array([np.nan if r == HEAD else draw(st.floats(width=64)) for r in role.tolist()], dtype=np.float64)
    packed = np.frombuffer(draw(st.binary(min_size=n * d // 8, max_size=n * d // 8)), dtype=np.uint8)
    return d, dict(ids=ids, cluster=cluster, score=score, role=role, packed=packed)


EMPTY_SEGMENT = (64, {name: np.zeros(0, dtype=dtype) for name, dtype in _COLUMNS})


@settings(max_examples=150, deadline=None)
@given(segment_columns())
@example(EMPTY_SEGMENT)
def test_segment_round_trip_stores_no_implied_value(case):
    d, columns = case
    blob = _encode_segment(d, columns)
    decoded_d, decoded = _decode_segment(blob, "segment")
    assert decoded_d == d and sorted(decoded) == sorted(columns)
    for name, dtype in _COLUMNS:
        assert decoded[name].dtype == np.dtype(dtype)
        assert decoded[name].tobytes() == columns[name].tobytes()  # NaN bits included
    # a 32-byte header and the CRC; per image its id, role byte and bits;
    # a cluster id only where it is not the image's id, a score only off a head
    named = np.count_nonzero(columns["cluster"] != columns["ids"])
    scored = np.count_nonzero(columns["role"] != HEAD)
    assert len(blob) == 36 + columns["ids"].size * (9 + d // 8) + 8 * (named + scored)


def with_role_byte(blob, row, value):
    """A segment's bytes with one row's role byte set to value, under a
    valid checksum."""
    images, named, scored = struct.unpack_from("<QQQ", blob, 8)
    body = bytearray(blob[:-4])
    body[32 + 8 * (images + named + scored) + row] = value
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


def test_decode_segment_refuses_bad_role_bytes():
    # 5 heads its own cluster; 6 is listed in it; 7 is a member of cluster 9
    columns = dict(
        ids=np.array([5, 6, 7], dtype=np.uint64), cluster=np.array([5, 5, 9], dtype=np.uint64),
        score=np.array([np.nan, 0.5, 0.25]), role=np.array([HEAD, LISTED, MEMBER], dtype=np.uint8),
        packed=np.arange(3, dtype=np.uint8),
    )
    blob = _encode_segment(8, columns)
    assert _decode_segment(blob, "segment")[1]["cluster"].tolist() == [5, 5, 9]
    for row, value, message in (
        (2, 3, "image 7: role 3"),
        (2, 0b1000, "image 7: reserved bits"),
        (0, HEAD, "2 cluster ids and 2 scores, where the role column calls for 3 and 2"),  # 5 loses its self-named bit
        (1, HEAD, "2 cluster ids and 2 scores, where the role column calls for 2 and 1"),  # listed 6 becomes a head
    ):
        with pytest.raises(StoreError, match=message):
            _decode_segment(with_role_byte(blob, row, value), "segment")


def test_save_refuses_a_head_with_a_score(tmp_path):
    emb = star_set(D, SEED, [(1, []), (2, [0]), (3, [1])])
    store = ClusterStore(lshc(), emb, [1, 1, 3], [0.5, 0.9, np.nan], [HEAD, LISTED, HEAD], directory=tmp_path / "store")
    assert store.clusters[1] == NearDupeCluster(1, 1, [(2, 0.9)])  # in memory the score goes unread
    with pytest.raises(StoreError, match="head 1 has score 0.5"):
        store.save()
    assert not (tmp_path / "store").exists()


def test_store_open_rejects_malformed_manifest_and_heads(tmp_path, model):
    directory = tmp_path / "store"
    store = make_store(directory=directory)
    manifest = directory / "manifest.json"
    good = manifest.read_text()
    for cut in range(len(good.rstrip())):
        manifest.write_text(good[:cut])
        with pytest.raises(StoreError):
            ClusterStore.open(directory)
    payload = json.loads(good)
    bad_manifests = ['{"version": 2}', '{"version": 2, "segments": {}}', "[1]", json.dumps(dict(payload, k_aug="3"))]
    for key, value in (("lsh", None), ("lsh", {"d": 64}), ("segments", [{}]), ("segments", [[0, 0, 4, 1]]),
                       ("batch_id", -1), ("batch_id", 2**63), ("k_aug", 2**63),
                       ("segments", payload["segments"] * 2)):
        bad_manifests.append(json.dumps(dict(payload, **{key: value})))
    for key, value in (("d", "64"), ("d", 2**70), ("term_bits", 7), ("selected_bits", [0.5] * 36)):
        bad_manifests.append(json.dumps(dict(payload, lsh=dict(payload["lsh"], **{key: value}))))
    for key, value in (("images", True), ("crc32", -1), ("last_batch", 5)):
        bad_manifests.append(json.dumps(dict(payload, segments=[dict(payload["segments"][0], **{key: value})])))
    for bad in bad_manifests:
        manifest.write_text(bad)
        with pytest.raises(StoreError):
            ClusterStore.open(directory)
    manifest.unlink()
    manifest.mkdir()  # unreadable
    with pytest.raises(StoreError):
        ClusterStore.open(directory)

    # entries no clustering can have, behind a valid checksum; the first
    # segment holds 1 (head), 2 (listed), 10 (head), 11 (listed) in cluster
    # rows 1, 1, 10, 10, the second the plain member 100 of cluster 1
    def put(name, value, at=slice(None)):
        return lambda c: c[name].__setitem__(at, value)

    two_segment_store(tmp_path / "two", model)
    for i, (position, edit, message) in enumerate((
        (-1, put("role", 3), "role 3"),
        (-1, put("role", HEAD), "exactly one head"),  # a second head in cluster 1
        (0, put("role", MEMBER, 0), "exactly one head"),  # cluster 1 without a head
        (-1, put("cluster", 7), "exactly one head"),  # a cluster of one member
        (0, put("cluster", 1), "exactly one head"),  # both heads in one cluster
        (0, put("ids", 1), "duplicate image ids"),
        (-1, put("ids", 1), "duplicate image ids"),  # an image stored in two segments
        (0, lambda c: c.update(ids=c["ids"][:-1], packed=c["packed"][:-8]), "header describes"),  # columns misaligned
    )):
        directory = tmp_path / f"copy{i}"
        shutil.copytree(tmp_path / "two", directory)
        rewrite_segment(directory, edit, position)
        with pytest.raises(StoreError, match=message):
            ClusterStore.open(directory)
    # more listed members in cluster 1 (2, then 100) than a k_aug of 1
    directory = tmp_path / "listed"
    shutil.copytree(tmp_path / "two", directory)
    rewrite_segment(directory, put("role", LISTED))
    ClusterStore.open(directory)  # k_aug is 3
    manifest = read_manifest(directory)
    (directory / "manifest.json").write_text(json.dumps(dict(manifest, k_aug=1)))
    with pytest.raises(StoreError, match="more than k_aug=1 listed"):
        ClusterStore.open(directory)


def test_store_open_rejects_every_truncated_segment(tmp_path, model):
    directory = tmp_path / "store"
    two_segment_store(directory, model)
    for position in (0, 1):
        path = segment_path(directory, position)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(StoreError):
                ClusterStore.open(directory)
        path.write_bytes(blob)
    ClusterStore.open(directory)


@pytest.fixture(scope="module")
def flip_store(tmp_path_factory):
    directory = tmp_path_factory.mktemp("flip") / "store"
    two_segment_store(directory, popcount_model(D, THETA))
    files = [segment_path(directory, 0), segment_path(directory, 1), directory / "manifest.json"]
    return directory, {path: path.read_bytes() for path in files}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_store_bit_flips_fail_only_with_store_error(data, flip_store):
    directory, files = flip_store
    path = data.draw(st.sampled_from(sorted(files)))
    blob = bytearray(files[path])
    pos = data.draw(st.integers(0, len(blob) - 1))
    blob[pos] ^= 1 << data.draw(st.integers(0, 7))
    path.write_bytes(bytes(blob))
    try:
        if path.name.endswith(".ndsg"):
            with pytest.raises(StoreError, match="checksum"):
                ClusterStore.open(directory)
        else:
            try:
                ClusterStore.open(directory)
            except StoreError:
                pass
    finally:
        path.write_bytes(files[path])


def test_interrupted_save_keeps_the_previous_generation(tmp_path, model, monkeypatch):
    from neardup import incremental

    first, second = batch([(100, [1]), (500, list(range(40, 60)))]), batch([(600, list(range(20, 30)))])
    clean = tmp_path / "clean"
    make_store(directory=clean)
    expected = clusters_to_tsv(run_incremental(clean, first, model, cfg())[0].table)

    directory = tmp_path / "store"
    before = clusters_to_tsv(make_store(directory=directory).table)
    real = incremental.atomic_write_text

    def crash(path, payload):
        raise OSError("simulated crash before the manifest swap")

    monkeypatch.setattr(incremental, "atomic_write_text", crash)
    with pytest.raises(OSError):
        run_incremental(directory, first, model, cfg())
    monkeypatch.setattr(incremental, "atomic_write_text", real)
    orphan = directory / "segment-0-1.ndsg"  # compacted with the 4-image first segment
    assert orphan.exists()
    assert clusters_to_tsv(ClusterStore.open(directory).table) == before

    # the same batch again ends as an uninterrupted run, file for file
    assert clusters_to_tsv(run_incremental(directory, first, model, cfg())[0].table) == expected
    assert {p.name: p.read_bytes() for p in directory.iterdir()} == {p.name: p.read_bytes() for p in clean.iterdir()}

    # a crash whose segment the next save does not rewrite leaves an orphan
    # that the next successful save deletes
    make_store(directory=tmp_path / "other")
    monkeypatch.setattr(incremental, "atomic_write_text", crash)
    with pytest.raises(OSError):
        run_incremental(tmp_path / "other", first, model, cfg())
    monkeypatch.setattr(incremental, "atomic_write_text", real)
    assert (tmp_path / "other" / orphan.name).exists()
    run_incremental(tmp_path / "other", second, model, cfg())
    assert not (tmp_path / "other" / orphan.name).exists()
    assert [p.name for p in tmp_path.joinpath("other").iterdir() if p.suffix == ".ndsg"] != []


def assert_same_store(a, b):
    assert np.array_equal(a.cluster, b.cluster)
    assert np.array_equal(a.score, b.score, equal_nan=True)
    assert np.array_equal(a.role, b.role)
    assert np.array_equal(a.embeddings.ids, b.embeddings.ids)
    assert np.array_equal(a.embeddings.packed, b.embeddings.packed)
    assert serialize_index(a.head_index) == serialize_index(b.head_index)
    assert (a.batch_id, a.k_aug, a.lsh_config) == (b.batch_id, b.k_aug, b.lsh_config)


def test_compaction_keeps_log_many_segments(tmp_path, model):
    rng = np.random.default_rng(5)
    directory = tmp_path / "store"
    previous = set()
    for b in range(1, 21):
        ids = np.arange(3 * b, 3 * b + 3, dtype=np.uint64)
        bits = rng.integers(0, 2, size=(3, D), dtype=np.uint8)
        bits[1] = bits[0]
        bits[1, :2] ^= 1  # a near duplicate in every batch
        store, _, _ = run_incremental(directory, EmbeddingSet.from_bits(ids, bits), model, cfg())
        segments = read_manifest(directory)["segments"]
        assert len(segments) <= math.ceil(math.log2(b)) + 1
        assert sum(ref["images"] for ref in segments) == len(store) == 3 * b
        assert_same_store(ClusterStore.open(directory), store)
        # a reader of the replaced generation keeps its segments until the next save
        named = {SegmentRef(**ref).name for ref in segments}
        assert {p.name for p in directory.glob("*.ndsg")} == named | previous
        previous = named
    assert sorted(p.name for p in directory.iterdir() if p.suffix != ".ndsg") == ["lock", "manifest.json"]


def test_second_writer_is_refused(tmp_path, model):
    directory = tmp_path / "store"
    make_store(directory=directory)
    fd = os.open(directory / "lock", os.O_RDWR | os.O_CREAT)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(StoreError, match="lock"):
            run_incremental(directory, batch([(100, [1])]), model, cfg())
    finally:
        os.close(fd)
    assert ClusterStore.open(directory).batch_id == 0  # the refused batch wrote nothing
    store, _, _ = run_incremental(directory, batch([(100, [1])]), model, cfg())
    assert store.batch_id == 1


def test_nvo_matches_a_duplicate_of_the_head(model):
    store = make_store()
    probe = batch([(100, [])])
    found = run_nvo(store, probe, model, cfg(), store.embeddings.concat(probe))
    assert match_rows(found) == [(100, 1, 1, pytest.approx(s(0)))]
    assert len(run_nvo(store, batch([]), model, cfg(), store.embeddings)) == 0


def test_nvo_uses_the_augmentation_list(model):
    # probe 200 is 12 bits from head 1 but only 6 from stored member 2
    emb = star_set(D, SEED, [(1, []), (2, list(range(6)))])
    store = ClusterStore.initialize(cluster_table([NearDupeCluster(1, 1, [(2, s(6))])]), emb, lshc())
    probe = batch([(200, list(range(12)))])
    ((_, cluster, via, score),) = match_rows(run_nvo(store, probe, model, cfg(), store.embeddings.concat(probe)))
    assert cluster == 1
    assert via == 2
    assert score == pytest.approx(s(6))


def test_nvn_is_the_static_pipeline(model):
    store = make_store()
    emb = batch([(100, [1]), (101, [1, 2]), (200, list(range(10, 20)))])
    nvn = run_nvn(store, emb, model, cfg())
    static = static_clusters(emb, model, cfg(), lsh_config=store.lsh_config)
    assert clusters_to_tsv(nvn.clusters) == clusters_to_tsv(static.clusters)


def test_merge_nvo_join_keeps_augmentation_frozen(model):
    store = make_store()
    emb = batch([(100, [1])])  # 2 bits from head 1
    combined = store.embeddings.concat(emb)
    nvn = cluster_table([NearDupeCluster(100, 100, [])])
    before = head_rows(store.heads)

    next_store, assignments = merge(store, matches((100, 1, 1, s(2))), nvn, model, combined)
    clusters = next_store.clusters
    assert assignments == [(100, 1, "nvo")]
    joined = dict(clusters[1].members)
    assert joined[100] == pytest.approx(s(2))  # scored against the old head
    assert head_rows(next_store.heads) == before  # join does not reopen the frozen list
    assert augmentation(next_store.heads, 1) == [(2, s(1))]
    assert next_store.role.tolist() == [HEAD, LISTED, HEAD, LISTED, MEMBER]
    assert (next_store.batch_id, next_store.directory, next_store.segments) == (1, None, ())
    # the input store was not touched
    assert 100 not in dict(store.clusters[1].members)
    assert clusters[10] == store.clusters[10]


def test_merge_unmatched_members_follow_best_match(model):
    store = make_store()
    # one batch cluster; 100 matched cluster 10 weakly, 102 matched 1 strongly
    emb = batch([(100, list(range(22, 36))), (101, [50]), (102, [1])])
    combined = store.embeddings.concat(emb)
    found = matches((100, 10, 10, s(2)), (102, 1, 1, s(1)))
    nvn = cluster_table([NearDupeCluster(100, 100, [(101, 0.9), (102, 0.9)])])
    next_store, assignments = merge(store, found, nvn, model, combined)
    clusters = next_store.clusters
    assert sorted(assignments) == [
        (100, 10, "nvo"),
        (101, 1, "nvn_mapped"),  # follows 102, the best-scoring match
        (102, 1, "nvo"),
    ]
    assert dict(clusters[1].members)[101] == pytest.approx(s(1))  # vs head 1
    assert dict(clusters[10].members)[100] == pytest.approx(s(2))


def test_merge_equal_scores_prefer_smaller_cluster(model):
    store = make_store()
    emb = batch([(100, list(range(22, 36))), (101, [50]), (102, [1, 2])])
    combined = store.embeddings.concat(emb)
    # identical scores: the tie goes to cluster 1
    found = matches((100, 10, 10, s(2)), (102, 1, 1, s(2)))
    nvn = cluster_table([NearDupeCluster(100, 100, [(101, 0.9), (102, 0.9)])])
    _, assignments = merge(store, found, nvn, model, combined)
    assert (101, 1, "nvn_mapped") in assignments


def test_merge_entering_cluster_repicks_head_and_rescores():
    # alpha=1 keeps sigmoid off saturation so hamming 1 beats hamming 2
    gentle = popcount_model(D, THETA, alpha=1.0)
    g = lambda h: 1.0 / (1.0 + math.exp(-(THETA - h)))  # noqa: E731
    store = make_store()
    # 201 is the medoid: distance 1 to both neighbors, the others are 2 apart
    emb = batch([(200, list(range(10, 20))), (201, list(range(10, 20)) + [63]),
                 (202, list(range(10, 20)) + [62, 63])])
    combined = store.embeddings.concat(emb)
    # incoming head/scores are deliberately wrong; merge must fix both
    nvn = cluster_table([NearDupeCluster(200, 202, [(200, 0.123), (201, 0.123)])])
    next_store, assignments = merge(store, matches(), nvn, gentle, combined)

    created = next_store.clusters[200]
    assert created.cluster_id == 200  # smallest member id
    assert created.head == 201
    assert dict(created.members) == {
        200: pytest.approx(g(1)),
        202: pytest.approx(g(1)),
    }
    assert augmentation(next_store.heads, 200) == [
        (200, pytest.approx(g(1))),
        (202, pytest.approx(g(1))),
    ]
    assert sorted(assignments) == [
        (200, 200, "nvn_new"),
        (201, 200, "nvn_new"),
        (202, 200, "nvn_new"),
    ]


def test_merge_picks_all_entering_heads_in_one_call(monkeypatch):
    from neardup import incremental

    gentle = popcount_model(D, THETA, alpha=1.0)  # hamming 1 outscores hamming 2
    store = make_store()
    emb = batch([(200, list(range(10, 20))), (201, list(range(10, 21))), (300, list(range(40, 50))),
                 (301, list(range(40, 51))), (302, list(range(40, 52))), (400, [60, 61, 62])])
    combined = store.embeddings.concat(emb)
    nvn = cluster_table([
        NearDupeCluster(200, 200, [(201, 0.9)]),
        NearDupeCluster(300, 301, [(300, 0.9), (302, 0.9)]),
        NearDupeCluster(400, 400, []),
    ])
    calls = []
    real = incremental.choose_head

    def counting(ids, sizes, *args):
        calls.append(list(sizes))
        return real(ids, sizes, *args)

    monkeypatch.setattr(incremental, "choose_head", counting)
    next_store, assignments = merge(store, matches(), nvn, gentle, combined)
    assert calls == [[2, 3, 1]]
    # 301 is the medoid of 300..302, ties between 200 and 201 go to 200
    assert next_store.heads.head.tolist() == [1, 10, 200, 301, 400]
    assert sorted(p for _, _, p in assignments) == ["nvn_new"] * 6
    assert len(next_store.table) == 5


def test_merge_scores_only_mapped_joiners_and_augmentation_matches(model, monkeypatch):
    from neardup import incremental

    # cluster 1: head 1 and listed member 2, six bits apart
    emb = star_set(D, SEED, [(1, []), (2, list(range(6)))])
    store = ClusterStore.initialize(cluster_table([NearDupeCluster(1, 1, [(2, s(6))])]), emb, lshc())
    # 100 matched head 1 and brings 101; 200 matched through member 2 (12
    # bits from the head, 6 from 2); 300 and 301 enter as a new cluster
    new = batch([(100, [50]), (101, [50, 51]), (200, list(range(12))), (300, [40]), (301, [40, 41])])
    combined = store.embeddings.concat(new)
    found = matches((100, 1, 1, s(1)), (200, 1, 2, s(6)))
    nvn = cluster_table([
        NearDupeCluster(100, 100, [(101, 0.9)]),
        NearDupeCluster(200, 200, []),
        NearDupeCluster(300, 300, [(301, 0.9)]),
    ])
    scored = []
    real = incremental.predict_rows

    def recording(model, embeddings, rows_a, rows_b):
        scored.extend(zip(embeddings.ids[rows_a].tolist(), embeddings.ids[rows_b].tolist()))
        return real(model, embeddings, rows_a, rows_b)

    monkeypatch.setattr(incremental, "predict_rows", recording)
    next_store, assignments = merge(store, found, nvn, model, combined)
    # the head match and the entering members keep the scores already made
    assert sorted(scored) == [(101, 1), (200, 1)]
    assert sorted(assignments) == [
        (100, 1, "nvo"), (101, 1, "nvn_mapped"), (200, 1, "nvo"), (300, 300, "nvn_new"), (301, 300, "nvn_new"),
    ]
    members = dict(next_store.clusters[1].members)
    assert members[100] == s(1)  # the match score, as given
    assert members[101] == pytest.approx(s(2))
    # matched through member 2, stored against head 1: not the match's s(6)
    assert members[200] == pytest.approx(s(12))
    assert dict(next_store.clusters[300].members) == {301: pytest.approx(s(1))}


def test_merge_rejects_cluster_id_collision(model):
    store = make_store()
    emb = batch([(300, [5])])
    combined = store.embeddings.concat(emb)
    # stored image 1 smuggled into a batch cluster: its min id is the
    # existing cluster id 1, which must be refused
    nvn = cluster_table([NearDupeCluster(1, 300, [(1, 0.9)])])
    with pytest.raises(StoreError):
        merge(store, matches(), nvn, model, combined)


def corpus_members():
    # group A: 0,1,2 tight; group B: 20,21 tight; singleton 40
    return [
        (0, []),
        (1, [0]),
        (2, [1]),
        (20, list(range(10, 26))),
        (21, list(range(10, 26)) + [40]),
        (40, list(range(28, 48))),
    ]


def test_run_incremental_matches_static_clustering(model, tmp_path):
    all_members = corpus_members()
    full = star_set(D, SEED, all_members)
    static = static_clusters(full, model, cfg(), lsh_config=lshc())

    directory = tmp_path / "store"
    first = star_set(D, SEED, all_members[:3])
    second = star_set(D, SEED, all_members[3:])
    store, a1, _ = run_incremental(directory, first, model, cfg())
    assert {p for _, _, p in a1} == {"nvn_new"}
    store, a2, _ = run_incremental(directory, second, model, cfg())

    final = {i: c for i, c, _ in a1 + a2}
    assert rand_index(static.clusters.cluster, [final[i] for i in static.clusters.image.tolist()]) == 1.0
    assert store.batch_id == 2
    assert len(store) == 6


def test_run_incremental_heads_take_the_scores_nvn_made(model, tmp_path, monkeypatch):
    from neardup import clustering, incremental

    inside, scored = [False], []
    real_choose, real_predict = incremental.choose_head, clustering.predict_rows

    def choose(*args):
        inside[0] = True
        try:
            return real_choose(*args)
        finally:
            inside[0] = False

    def predict(model, embeddings, rows_a, rows_b):
        if inside[0]:
            scored.append(len(rows_a))
        return real_predict(model, embeddings, rows_a, rows_b)

    monkeypatch.setattr(incremental, "choose_head", choose)
    monkeypatch.setattr(clustering, "predict_rows", predict)
    # two pairs one bit apart and a lone image: each pair is an edge NvN kept
    new = batch([(0, []), (1, [0]), (20, list(range(10, 26))), (21, list(range(10, 26)) + [40]),
                 (40, list(range(28, 48)))])
    store, assignments, _ = run_incremental(tmp_path / "store", new, model, cfg())
    assert [p for _, _, p in assignments] == ["nvn_new"] * 5 and len(store.table) == 3
    assert scored == []


def test_run_incremental_joins_via_heads(model, tmp_path):
    store = make_store(directory=tmp_path / "store")
    dup = batch([(100, [1])])  # 2 bits from head 1
    next_store, assignments, labels = run_incremental(tmp_path / "store", dup, model, cfg())
    assert assignments == [(100, 1, "nvo")]
    assert labels.tolist() == []  # matched at the head, no augmentation label
    assert next_store.batch_id == 1
    assert 100 in dict(next_store.clusters[1].members)
    # the first segment stays; the batch went into a segment of its own
    assert [ref["images"] for ref in read_manifest(tmp_path / "store")["segments"]] == [4, 1]
    assert (tmp_path / "store" / "segment-0-0.ndsg").exists()
    assert (tmp_path / "store" / "segment-1-1.ndsg").exists()


def test_run_incremental_emits_augmentation_labels(model):
    # one cluster: head 1, member 2 six bits out (so 2 is in the aug list)
    emb = star_set(D, SEED, [(1, []), (2, list(range(6)))])
    store = ClusterStore.initialize(cluster_table([NearDupeCluster(1, 1, [(2, s(6))])]), emb, lshc(), k_aug=3)
    probe = batch([(200, list(range(12)))])  # 12 bits from the head, 6 from member 2
    next_store, assignments, labels = run_incremental(store, probe, model, cfg())
    assert assignments == [(200, 1, "nvo")]
    assert labels.tolist() == [[200, 1, 1]]  # the head pair the classifier missed


def test_run_incremental_is_idempotent(model, tmp_path):
    store = make_store(directory=tmp_path / "store")
    dup = batch([(100, [1])])
    run_incremental(tmp_path / "store", dup, model, cfg())
    again, assignments, labels = run_incremental(tmp_path / "store", dup, model, cfg())
    assert assignments == [(100, 1, "existing")]
    assert labels.tolist() == []
    assert again.batch_id == 1  # nothing was written
    assert len(again) == 5


def test_run_incremental_leaves_input_store_untouched(model):
    store = make_store()
    snapshot = clusters_to_tsv(store.clusters.values())
    heads_before = head_rows(store.heads)
    next_store, _, _ = run_incremental(store, batch([(100, [1])]), model, cfg())
    assert next_store is not store
    assert clusters_to_tsv(store.clusters.values()) == snapshot
    assert head_rows(store.heads) == heads_before
    assert len(store) == 4 and len(next_store) == 5


def test_run_incremental_empty_batch_is_a_noop(model):
    store = make_store()
    out, assignments, labels = run_incremental(store, batch([]), model, cfg())
    assert out is store
    assert assignments == [] and labels.shape == (0, 3)


def test_run_incremental_empty_first_batch_writes_no_store(model, tmp_path):
    out, assignments, labels = run_incremental(tmp_path / "store", batch([]), model, cfg())
    assert len(out) == 0 and out.n_clusters == 0
    assert assignments == [] and labels.shape == (0, 3)
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == ["lock"]
    # the first non-empty batch picks the LSH bits, as into a fresh directory
    later, _, _ = run_incremental(out, batch([(100, [1])]), model, cfg())
    fresh, _, _ = run_incremental(tmp_path / "other", batch([(100, [1])]), model, cfg())
    assert later.lsh_config == fresh.lsh_config
    assert ClusterStore.open(tmp_path / "store").batch_id == 1


def test_run_incremental_logs_each_stage(model, tmp_path, caplog):
    make_store(directory=tmp_path / "store")
    with caplog.at_level("INFO", logger="neardup"):
        run_incremental(tmp_path / "store", batch([(100, [1]), (500, list(range(40, 60)))]), model, cfg())
    timed = [re.match(r"(\w+) \d+\.\d{3}s: ", r.getMessage()) for r in caplog.records]
    stages = [m.group(1) for m in timed if m]
    # nvn runs the static pipeline on the batch, which logs its own five stages
    assert stages == ["open", "nvo", "index", "search", "select", "closure", "cut", "nvn", "merge", "save"]


def test_assignments_to_tsv_format():
    rows = [(3, 1, "nvo"), (7, 7, "nvn_new")]
    assert assignments_to_tsv(rows) == "3\t1\tnvo\n7\t7\tnvn_new\n"
