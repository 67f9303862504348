"""Incremental ingestion: store lifecycle, NvO/NvN, merge semantics.

All distances are engineered through star_set flip lists, so the popcount
model gives exact, predictable scores everywhere.
"""

import json
import math
import re

import numpy as np
import pytest

from neardup import (
    ClusterHeads,
    ClusterStore,
    ClusterTable,
    DataError,
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
from neardup.clustering import ClusterIndex, clusters_to_tsv
from neardup.index import build_index, serialize_index

from conftest import popcount_model, star_set

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
            "kcut": {"threshold": 0.5},
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
    clusters = [
        NearDupeCluster(1, 1, [(2, s(1))]),
        NearDupeCluster(10, 10, [(11, s(1))]),
    ]
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
    store = ClusterStore.initialize([cluster], emb, lshc(), k_aug=2)
    # top two by score, tie broken toward the smaller id
    assert head_rows(store.heads) == [(1, 1, [(6, 0.99), (7, 0.99)])]


def test_store_consistency_checks():
    emb = star_set(D, SEED, [(1, []), (2, [0]), (3, [1])])
    c1 = NearDupeCluster(1, 1, [(2, 0.9)])
    # heads/clusters id sets must agree
    with pytest.raises(StoreError):
        ClusterStore(lshc(), emb, ClusterTable.from_clusters([c1]), ClusterHeads())
    # and so must the heads themselves
    with pytest.raises(StoreError):
        ClusterStore(lshc(), emb, ClusterTable.from_clusters([c1]), ClusterHeads([1], [2], [0]))
    # every clustered image needs an embedding
    with pytest.raises(StoreError):
        ClusterStore.initialize([NearDupeCluster(1, 1, [(9, 0.5)])], emb, lshc())
    # no unclustered embeddings allowed
    with pytest.raises(StoreError):
        ClusterStore.initialize([c1], emb, lshc())
    # the same image cannot sit in two clusters: as a table the store
    # refuses it, as cluster objects already the conversion to a table does
    both = ClusterTable([1, 3, 2, 3], [1, 1, 2, 2], [True, False, True, False], [np.nan, 0.9, np.nan, 0.8])
    with pytest.raises(StoreError):
        ClusterStore(lshc(), emb, both, ClusterHeads.from_table(both, 3))
    with pytest.raises(DataError):
        ClusterStore.initialize(list(both), emb, lshc())


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
    for name in ("manifest.json", "clusters-0.tsv", "heads-0.json", "heads-0.ndix", "embeddings-0.ndem"):
        assert (tmp_path / "store" / name).exists()


def test_heads_file_is_compact_json_and_round_trips(tmp_path):
    store = make_store(directory=tmp_path / "store")
    text = (tmp_path / "store" / "heads-0.json").read_text(encoding="utf-8")
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert payload["1"] == {"augmentation": [[2, s(1)]], "head": 1}
    again = ClusterStore.open(tmp_path / "store")
    assert head_rows(again.heads) == head_rows(store.heads)
    # a reopened store writes the same bytes again
    again.save(tmp_path / "copy")
    assert (tmp_path / "copy" / "heads-0.json").read_text(encoding="utf-8") == text


def test_store_open_rejects_bad_state(tmp_path):
    with pytest.raises(StoreError):
        ClusterStore.open(tmp_path / "nowhere")

    store = make_store(directory=tmp_path / "store")
    manifest = tmp_path / "store" / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"version": 1', '"version": 9'))
    with pytest.raises(StoreError):
        ClusterStore.open(tmp_path / "store")

    store.save()  # restore a good manifest
    # a full (non-head-only) index in the head slot must be refused
    full = build_index(store.embeddings.subset([1, 10]), lshc(), head_only=False)
    (tmp_path / "store" / "heads-0.ndix").write_bytes(serialize_index(full))
    with pytest.raises(StoreError):
        ClusterStore.open(tmp_path / "store")


def test_store_open_rejects_malformed_manifest_and_heads(tmp_path):
    store = make_store(directory=tmp_path / "store")
    manifest = tmp_path / "store" / "manifest.json"
    good = manifest.read_text()
    for cut in range(len(good.rstrip())):
        manifest.write_text(good[:cut])
        with pytest.raises(StoreError):
            ClusterStore.open(tmp_path / "store")
    for bad in ('{"version": 1}', '{"version": 1, "files": {}}', "[1]",
                good.replace('"k_aug": 3', '"k_aug": "3"')):
        manifest.write_text(bad)
        with pytest.raises(StoreError):
            ClusterStore.open(tmp_path / "store")

    store.save()  # a good manifest again; now break the files it names
    heads = tmp_path / "store" / "heads-0.json"
    for bad in ('{"1": {"head": 1}}', '{"1": [1]}', "[]", '{"x": {"head": 1, "augmentation": []}}'):
        heads.write_text(bad)
        with pytest.raises(StoreError):
            ClusterStore.open(tmp_path / "store")
    store.save()
    (tmp_path / "store" / "clusters-0.tsv").write_text("1\tone\thead\t\n")
    with pytest.raises(StoreError):
        ClusterStore.open(tmp_path / "store")


def test_nvo_matches_a_duplicate_of_the_head(model):
    store = make_store()
    found = run_nvo(store, batch([(100, [])]), model, threshold=0.5)
    assert match_rows(found) == [(100, 1, 1, pytest.approx(s(0)))]
    assert len(run_nvo(store, batch([]), model, 0.5)) == 0


def test_nvo_uses_the_augmentation_list(model):
    # probe 200 is 12 bits from head 1 but only 6 from stored member 2
    emb = star_set(D, SEED, [(1, []), (2, list(range(6)))])
    store = ClusterStore.initialize([NearDupeCluster(1, 1, [(2, s(6))])], emb, lshc())
    ((_, cluster, via, score),) = match_rows(run_nvo(store, batch([(200, list(range(12)))]), model, threshold=0.5))
    assert cluster == 1
    assert via == 2
    assert score == pytest.approx(s(6))


def test_nvo_detects_out_of_sync_head_index(model):
    store = make_store()
    for indexed in ([2], [1, 11], [1, 2, 10]):
        store.head_index = build_index(store.embeddings.subset(indexed), lshc(), head_only=True)
        with pytest.raises(StoreError):
            run_nvo(store, batch([(100, [])]), model, 0.5)
    # the same heads in another dense order are in sync
    store.head_index = build_index(store.embeddings.subset([10, 1]), lshc(), head_only=True)
    assert run_nvo(store, batch([(100, [])]), model, 0.5).cluster.tolist() == [1]


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
    nvn = [NearDupeCluster(100, 100, [])]
    before = head_rows(store.heads)

    table, heads, assignments = merge(store, matches((100, 1, 1, s(2))), nvn, model, combined)
    clusters = ClusterIndex(table)
    assert assignments == [(100, 1, "nvo")]
    joined = dict(clusters[1].members)
    assert joined[100] == pytest.approx(s(2))  # scored against the old head
    assert head_rows(heads) == before  # join does not reopen the frozen list
    assert augmentation(heads, 1) == [(2, s(1))]
    # the input store was not touched
    assert 100 not in dict(store.clusters[1].members)
    assert clusters[10] == store.clusters[10]


def test_merge_unmatched_members_follow_best_match(model):
    store = make_store()
    # one batch cluster; 100 matched cluster 10 weakly, 102 matched 1 strongly
    emb = batch([(100, list(range(22, 36))), (101, [50]), (102, [1])])
    combined = store.embeddings.concat(emb)
    found = matches((100, 10, 10, s(2)), (102, 1, 1, s(1)))
    nvn = [NearDupeCluster(100, 100, [(101, 0.9), (102, 0.9)])]
    table, heads, assignments = merge(store, found, nvn, model, combined)
    clusters = ClusterIndex(table)
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
    nvn = [NearDupeCluster(100, 100, [(101, 0.9), (102, 0.9)])]
    _, _, assignments = merge(store, found, nvn, model, combined)
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
    nvn = [NearDupeCluster(200, 202, [(200, 0.123), (201, 0.123)])]
    table, heads, assignments = merge(store, matches(), nvn, gentle, combined)

    created = ClusterIndex(table)[200]
    assert created.cluster_id == 200  # smallest member id
    assert created.head == 201
    assert dict(created.members) == {
        200: pytest.approx(g(1)),
        202: pytest.approx(g(1)),
    }
    assert augmentation(heads, 200) == [
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
    nvn = [
        NearDupeCluster(200, 200, [(201, 0.9)]),
        NearDupeCluster(300, 301, [(300, 0.9), (302, 0.9)]),
        NearDupeCluster(400, 400, []),
    ]
    calls = []
    real = incremental.choose_head

    def counting(ids, sizes, *args):
        calls.append(list(sizes))
        return real(ids, sizes, *args)

    monkeypatch.setattr(incremental, "choose_head", counting)
    table, heads, assignments = merge(store, matches(), nvn, gentle, combined)
    assert calls == [[2, 3, 1]]
    # 301 is the medoid of 300..302, ties between 200 and 201 go to 200
    assert heads.head.tolist() == [1, 10, 200, 301, 400]
    assert sorted(p for _, _, p in assignments) == ["nvn_new"] * 6
    assert len(table) == 5


def test_merge_rejects_cluster_id_collision(model):
    store = make_store()
    emb = batch([(300, [5])])
    combined = store.embeddings.concat(emb)
    # stored image 1 smuggled into a batch cluster: its min id is the
    # existing cluster id 1, which must be refused
    nvn = [NearDupeCluster(1, 300, [(1, 0.9)])]
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

    final = {i: c for i, c, _ in a1}
    final.update({i: c for i, c, _ in a2})
    assert rand_index(final, static.assignment()) == 1.0
    assert store.batch_id == 2
    assert len(store) == 6


def test_run_incremental_joins_via_heads(model, tmp_path):
    store = make_store(directory=tmp_path / "store")
    dup = batch([(100, [1])])  # 2 bits from head 1
    next_store, assignments, labels = run_incremental(tmp_path / "store", dup, model, cfg())
    assert assignments == [(100, 1, "nvo")]
    assert labels == []  # matched at the head, no augmentation label
    assert next_store.batch_id == 1
    assert 100 in dict(next_store.clusters[1].members)
    # previous generation files survive the new save
    assert (tmp_path / "store" / "clusters-0.tsv").exists()
    assert (tmp_path / "store" / "clusters-1.tsv").exists()


def test_run_incremental_emits_augmentation_labels(model):
    # one cluster: head 1, member 2 six bits out (so 2 is in the aug list)
    emb = star_set(D, SEED, [(1, []), (2, list(range(6)))])
    store = ClusterStore.initialize([NearDupeCluster(1, 1, [(2, s(6))])], emb, lshc(), k_aug=3)
    probe = batch([(200, list(range(12)))])  # 12 bits from the head, 6 from member 2
    next_store, assignments, labels = run_incremental(store, probe, model, cfg())
    assert assignments == [(200, 1, "nvo")]
    assert labels == [(200, 1, 1)]  # the head pair the classifier missed


def test_run_incremental_is_idempotent(model, tmp_path):
    store = make_store(directory=tmp_path / "store")
    dup = batch([(100, [1])])
    run_incremental(tmp_path / "store", dup, model, cfg())
    again, assignments, labels = run_incremental(tmp_path / "store", dup, model, cfg())
    assert assignments == [(100, 1, "existing")]
    assert labels == []
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
    assert assignments == [] and labels == []


def test_run_incremental_logs_each_stage(model, tmp_path, caplog):
    make_store(directory=tmp_path / "store")
    with caplog.at_level("INFO", logger="neardup"):
        run_incremental(tmp_path / "store", batch([(100, [1]), (500, list(range(40, 60)))]), model, cfg())
    timed = [re.match(r"(\w+) \d+\.\d{3}s: ", r.getMessage()) for r in caplog.records]
    stages = [m.group(1) for m in timed if m]
    assert stages == ["open", "nvo", "nvn", "merge", "save"]


def test_assignments_to_tsv_format():
    rows = [(3, 1, "nvo"), (7, 7, "nvn_new")]
    assert assignments_to_tsv(rows) == "3\t1\tnvo\n7\t7\tnvn_new\n"
