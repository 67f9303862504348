"""Clustering tests: closure against a union-find oracle, k-cut invariants
under the popcount model, head choice, and the cluster TSV format."""

import time

import numpy as np
import pytest

from neardup import (
    ClusterTable,
    DataError,
    EmbeddingSet,
    choose_head,
    k_cut,
    read_clusters_tsv,
    transitive_closure,
)
from neardup import clustering
from neardup.clustering import ClusterIndex, clusters_to_tsv
from neardup.classifier import init_model, predict_rows
from neardup.search import row_pair_keys
from neardup.selection import select_edges
from neardup.util import atomic_write_text, pairs_within

from conftest import popcount_model, star_set


def union_find_oracle(edges):
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        if a == b:
            continue
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for n in parent:
        groups.setdefault(find(n), []).append(n)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def as_lists(groups):
    return [[int(x) for x in g] for g in groups]


def test_closure_chain():
    groups = transitive_closure([(1, 2), (2, 3), (7, 8)])
    assert as_lists(groups) == [[1, 2, 3], [7, 8]]


def test_closure_ignores_self_loops_and_duplicates():
    assert as_lists(transitive_closure([(5, 5)])) == []
    assert as_lists(transitive_closure([(1, 2), (2, 1), (1, 2)])) == [[1, 2]]
    assert transitive_closure([]) == []


def test_closure_matches_union_find(rng):
    for _ in range(25):
        n_nodes = int(rng.integers(3, 60))
        n_edges = int(rng.integers(1, 80))
        edges = [
            (int(rng.integers(n_nodes)), int(rng.integers(n_nodes)))
            for _ in range(n_edges)
        ]
        assert as_lists(transitive_closure(edges)) == union_find_oracle(edges)


def test_closure_takes_id_arrays_and_rejects_other_shapes():
    a = np.array([3, 2, 2**64 - 2], dtype=np.uint64)
    b = np.array([2, 1, 7], dtype=np.uint64)
    assert as_lists(transitive_closure(np.column_stack((a, b)))) == [[1, 2, 3], [7, 2**64 - 2]]
    assert transitive_closure(np.zeros((0, 2), dtype=np.uint64)) == []
    with pytest.raises(DataError):
        transitive_closure([(1, 2, 3)])


def test_closure_groups_sorted_by_min_member():
    groups = transitive_closure([(30, 31), (1, 2), (10, 11), (2, 10)])
    assert as_lists(groups) == [[1, 2, 10, 11], [30, 31]]


def closure_worst_cases(rng):
    """Edge arrays by name: a long chain over shuffled ids, a star whose
    centre has the largest id, and many two-node groups."""
    ids = rng.permutation(20_000).astype(np.uint64) + np.uint64(7)
    chain = np.column_stack((ids[:-1], ids[1:]))
    leaves = rng.permutation(5_000).astype(np.uint64)
    star = np.column_stack((np.full(leaves.size, 2**64 - 2, dtype=np.uint64), leaves))
    pairs = rng.permutation(10_000).astype(np.uint64).reshape(-1, 2)
    return {"chain": chain, "star": star, "pairs": pairs}


@pytest.mark.parametrize("case", ["chain", "star", "pairs"])
def test_closure_worst_cases_match_union_find(case):
    edges = closure_worst_cases(np.random.default_rng(23))[case]
    t0 = time.perf_counter()
    groups = transitive_closure(edges)
    elapsed = time.perf_counter() - t0
    assert as_lists(groups) == union_find_oracle(edges.tolist())
    for g in groups:
        assert g.dtype == np.uint64 and np.all(g[1:] > g[:-1])
    firsts = [int(g[0]) for g in groups]
    assert firsts == sorted(firsts)
    # a closure that needs a round per hop would take seconds on the chain's 19,999 hops
    assert elapsed < 1.0


D = 64


def two_blob_embeddings():
    # ids 1,2,3 within distance 2 of each other; 10,11 within 1; blobs ~20 apart
    return star_set(
        D,
        31,
        [
            (1, []),
            (2, [0]),
            (3, [1]),
            (10, list(range(20, 40))),
            (11, list(range(20, 40)) + [50]),
        ],
    )


def test_k_cut_splits_loose_group():
    emb = two_blob_embeddings()
    model = popcount_model(D, 5.5)
    # one closure group pretending a chain linked the blobs
    group = [np.array([1, 2, 3, 10, 11], dtype=np.uint64)]
    for seed in range(6):
        clusters = k_cut(group, model, emb, threshold=0.5, seed=seed)
        parts = sorted(sorted(c.image_ids) for c in clusters)
        assert parts == [[1, 2, 3], [10, 11]]  # any pivot gives the same split


def test_k_cut_members_clear_threshold():
    emb = two_blob_embeddings()
    model = popcount_model(D, 5.5)
    group = [np.array([1, 2, 3, 10, 11], dtype=np.uint64)]
    clusters = k_cut(group, model, emb, threshold=0.5, seed=3)
    for c in clusters:
        assert c.cluster_id == min(c.image_ids)
        for m, s in c.members:
            (recomputed,) = predict_rows(model, emb, emb.rows_of([c.head]), emb.rows_of([m]))
            assert s == recomputed
            assert s >= 0.5


def test_k_cut_deterministic():
    emb = two_blob_embeddings()
    model = popcount_model(D, 5.5)
    group = [np.array([1, 2, 3, 10, 11], dtype=np.uint64)]
    a = k_cut(group, model, emb, threshold=0.5, seed=9)
    b = k_cut(group, model, emb, threshold=0.5, seed=9)
    assert clusters_to_tsv(a) == clusters_to_tsv(b)


def test_k_cut_partitions_random_groups(rng):
    ids = list(range(40))
    members = [(i, sorted(rng.choice(D, size=rng.integers(0, 12), replace=False))) for i in ids]
    emb = star_set(D, 37, members)
    model = popcount_model(D, 7.5)
    edges = [(int(rng.integers(40)), int(rng.integers(40))) for _ in range(60)]
    groups = transitive_closure(edges)
    grouped = sorted(int(x) for g in groups for x in g)
    clusters = k_cut(groups, model, emb, threshold=0.5, seed=1)
    emitted = sorted(i for c in clusters for i in c.image_ids)
    assert emitted == grouped  # a partition: every id exactly once
    for c in clusters:
        assert c.cluster_id == min(c.image_ids)
        assert all(s >= 0.5 for _, s in c.members)


def test_k_cut_with_edge_scores_matches_rescoring(rng, monkeypatch):
    # popcount scores come from exact integer sums, so a pair scores the same
    # bits in any call and reused scores must change nothing
    members = [(i, sorted(rng.choice(D, size=rng.integers(0, 10), replace=False))) for i in range(50)]
    # 100..102 are close to each other but never candidates, so no edge links them
    members += [(100, list(range(40, 52))), (101, list(range(40, 53))), (102, list(range(41, 52)))]
    emb = star_set(D, 53, members)
    model = popcount_model(D, 7.5, alpha=1.0)  # h <= 6 scores >= 0.8, h <= 8 >= 0.3
    ia, ib = np.triu_indices(50, k=1)
    take = rng.random(ia.size) < 0.6
    a, b = ia[take].astype(np.uint64), ib[take].astype(np.uint64)
    edges_a, edges_b, edge_scores, _ = select_edges(a, b, model, emb, 0.8)
    # the lookup takes either order and any sequence: give about half the
    # edges as (b, a), all of them shuffled
    flip = rng.random(edges_a.size) < 0.5
    perm = rng.permutation(edges_a.size)
    scored = (
        np.where(flip, edges_b, edges_a)[perm],
        np.where(flip, edges_a, edges_b)[perm],
        edge_scores[perm],
    )
    groups = transitive_closure(np.column_stack((edges_a, edges_b)))
    groups.append(np.array([100, 101, 102], dtype=np.uint64))
    known = row_pair_keys(emb.rows_of(edges_a), emb.rows_of(edges_b))

    asked = []
    real = clustering.predict_rows

    def counting(model, embeddings, rows_a, rows_b, *args, **kwargs):
        asked.append(row_pair_keys(rows_a, rows_b))
        return real(model, embeddings, rows_a, rows_b, *args, **kwargs)

    monkeypatch.setattr(clustering, "predict_rows", counting)
    for threshold in (0.8, 0.3):  # the selection threshold, and below it
        asked.clear()
        plain = k_cut(groups, model, emb, threshold, seed=4)
        round_pairs = np.concatenate(asked)
        asked.clear()
        reused = k_cut(groups, model, emb, threshold, seed=4, scored=scored)
        assert [(c.cluster_id, c.head, c.members) for c in reused] == [
            (c.cluster_id, c.head, c.members) for c in plain
        ]
        # only the round pairs that are not edges were scored, each once
        missing = round_pairs[~np.isin(round_pairs, known)]
        rescored = np.concatenate(asked) if asked else np.zeros(0, dtype=np.uint64)
        assert np.array_equal(np.sort(rescored), np.sort(missing))
        assert 0 < missing.size < round_pairs.size
        if threshold < 0.8:
            # a rescored pair below the selection threshold joined a cluster
            assert any(sc < 0.8 for c in reused for _, sc in c.members)
    with pytest.raises(DataError):
        k_cut(groups, model, emb, 0.5, scored=(edges_a, edges_b, edge_scores[:-1]))


def test_k_cut_singletons_bypass():
    emb = star_set(D, 41, [(5, []), (9, [0])])
    model = popcount_model(D, 5.5)
    clusters = k_cut([np.array([5], dtype=np.uint64)], model, emb, 0.5)
    assert [(c.cluster_id, c.head, c.members) for c in clusters] == [(5, 5, [])]


def test_k_cut_residual_singleton():
    # two far-apart images in one group: pivot clusters alone, the leftover
    # must come back as its own singleton
    emb = star_set(D, 43, [(1, []), (2, list(range(30)))])
    model = popcount_model(D, 5.5)
    clusters = k_cut([np.array([1, 2], dtype=np.uint64)], model, emb, 0.5, seed=0)
    assert sorted(sorted(c.image_ids) for c in clusters) == [[1], [2]]


def test_k_cut_threshold_validated():
    emb = star_set(D, 47, [(1, [])])
    model = popcount_model(D, 5.5)
    with pytest.raises(DataError):
        k_cut([], model, emb, threshold=1.0)


def choose_head_oracle(ids, model, emb):
    best = None
    for h in sorted(ids):
        total = sum(
            float(predict_rows(model, emb, emb.rows_of([h]), emb.rows_of([o]))[0])
            for o in ids
            if o != h
        )
        if best is None or total > best[0] + 1e-12:
            best = (total, h)
    return best[1]


def assert_medoid_table(table, groups, model, emb):
    """table is the groups as clusters: named by the smallest member, headed
    by the oracle's medoid, each member scored against it pair by pair."""
    rows = []
    for g in groups:
        head = choose_head_oracle(g, model, emb)
        rows.append((head, min(g), True, np.nan))
        for m in g:
            if m != head:
                score = predict_rows(model, emb, emb.rows_of([m]), emb.rows_of([head]))[0]
                rows.append((m, min(g), False, score))
    want = ClusterTable(*zip(*rows))
    for got_column, want_column in zip(table.columns, want.columns):
        np.testing.assert_array_equal(got_column, want_column)


def test_choose_head_is_score_medoid(rng):
    model = popcount_model(D, 9.5)
    for trial in range(8):
        n = int(rng.integers(2, 9))
        members = [
            (i, sorted(rng.choice(D, size=rng.integers(0, 10), replace=False)))
            for i in range(n)
        ]
        emb = star_set(D, 100 + trial, members)
        ids = [i for i, _ in members]
        assert_medoid_table(choose_head(ids, [n], model, emb), [ids], model, emb)


def test_choose_head_batches_groups_like_one_call_each(rng):
    # several groups of mixed sizes, singletons included, in one call
    members = [(i, sorted(rng.choice(D, size=rng.integers(0, 10), replace=False))) for i in range(40)]
    emb = star_set(D, 59, members)
    model = popcount_model(D, 9.5)
    sizes = [1, 5, 2, 9, 1, 7, 3, 12]
    ids = rng.permutation(40)
    groups = [g.tolist() for g in np.split(ids, np.cumsum(sizes)[:-1])]
    assert_medoid_table(choose_head(ids, sizes, model, emb), groups, model, emb)


def test_choose_head_member_scores_match_fresh_calls(rng):
    # a trained-width model whose scores round differently with the shape
    # of a BLAS call: the member scores taken from the one pairwise call
    # equal the scores of the same pairs in calls of their own
    emb = EmbeddingSet.from_bits(np.arange(60, dtype=np.uint64), rng.integers(0, 2, size=(60, 256), dtype=np.uint8))
    model = init_model(256, seed=3)
    for b in model.biases:
        b += rng.normal(scale=0.1, size=b.shape)
    sizes = [2, 7, 1, 13, 4, 33]
    table = choose_head(rng.permutation(60), sizes, model, emb)
    member = ~table.head
    head = np.repeat(table.heads, table.sizes)[member]
    one_call = predict_rows(model, emb, emb.rows_of(table.image[member]), emb.rows_of(head))
    assert np.array_equal(table.score[member], one_call)
    for m, h, score in zip(table.image[member].tolist(), head.tolist(), table.score[member].tolist()):
        assert predict_rows(model, emb, emb.rows_of([h]), emb.rows_of([m]))[0] == score


def test_choose_head_takes_known_scores_bit_for_bit(rng, monkeypatch):
    # the trained-width model above; a share of the pairs comes scored, in
    # either orientation, from a call of another shape, and no byte of the
    # table moves: only the other pairs are scored, in one call
    emb = EmbeddingSet.from_bits(np.arange(60, dtype=np.uint64), rng.integers(0, 2, size=(60, 256), dtype=np.uint8))
    model = init_model(256, seed=3)
    for b in model.biases:
        b += rng.normal(scale=0.1, size=b.shape)
    sizes = [2, 7, 1, 13, 4, 33]
    ids = rng.permutation(60).astype(np.uint64)
    fresh = choose_head(ids, sizes, model, emb)
    ia, ib = pairs_within(sizes)
    calls = []
    real = clustering.predict_rows

    def counting(model, embeddings, rows_a, rows_b):
        calls.append(len(rows_a))
        return real(model, embeddings, rows_a, rows_b)

    monkeypatch.setattr(clustering, "predict_rows", counting)
    for share in (0.0, 0.5, 1.0):
        known = rng.random(ia.size) < share
        swap = rng.random(ia.size) < 0.5
        a, b = np.where(swap, ids[ib], ids[ia])[known], np.where(swap, ids[ia], ids[ib])[known]
        scored = (a, b, real(model, emb, emb.rows_of(a), emb.rows_of(b)))
        calls.clear()
        table = choose_head(ids, sizes, model, emb, scored=scored)
        assert calls == ([] if known.all() else [ia.size - known.sum()])
        for got, want in zip(table.columns, fresh.columns):
            assert got.tobytes() == want.tobytes()


def test_choose_head_ties_and_errors():
    model = popcount_model(D, 9.5)
    # 1 and 2 are symmetric around 0: equal sums, smaller id wins
    emb = star_set(D, 53, [(0, []), (1, [0]), (2, [1])])
    assert choose_head([2, 1, 0], [3], model, emb).heads.tolist() == [0]
    single = choose_head([7], [1], model, star_set(D, 53, [(7, [])]))
    assert (single.image.tolist(), single.cluster.tolist(), single.head.tolist()) == ([7], [7], [True])
    with pytest.raises(DataError):
        choose_head([], [], model, emb)
    with pytest.raises(DataError):
        choose_head([1, 2], [2, 0], model, emb)
    with pytest.raises(DataError):
        choose_head([1, 1], [2], model, emb)


def test_cluster_member_validation():
    # a cluster needs exactly one head row
    with pytest.raises(DataError):
        ClusterTable([1, 2], [1, 1], [True, True], [np.nan, np.nan])
    with pytest.raises(DataError):
        ClusterTable([1], [1], [False], [0.9])


def test_clusters_tsv_round_trip(tmp_path):
    table = ClusterTable([12, 1, 9, 4], [4, 1, 4, 4], [False, True, True, False], [0.75, np.nan, np.nan, 0.971234])
    path = tmp_path / "c.tsv"
    atomic_write_text(path, clusters_to_tsv(table))
    text = path.read_text()
    # sorted by cluster id, head row first, members sorted, score %.6f
    assert text.splitlines() == [
        "1\t1\thead\t",
        "9\t4\thead\t",
        "4\t4\tmember\t0.971234",
        "12\t4\tmember\t0.750000",
    ]
    back = read_clusters_tsv(path)
    assert [(c.cluster_id, c.head, c.members) for c in back] == [
        (1, 1, []),
        (4, 9, [(4, 0.971234), (12, 0.75)]),
    ]
    assert clusters_to_tsv(back) == text  # byte-stable through a round trip


def test_clusters_tsv_rejects_malformed(tmp_path):
    cases = {
        "fields": "1\t1\thead\n",
        "role": "1\t1\tchief\t\n",
        "orphan": "2\t1\tmember\t0.5\n",
        "dup_head": "1\t1\thead\t\n1\t1\thead\t\n",
    }
    for name, content in cases.items():
        p = tmp_path / f"{name}.tsv"
        p.write_text(content)
        with pytest.raises(DataError):
            read_clusters_tsv(p)


def test_clusters_tsv_rejects_an_image_on_two_rows(tmp_path):
    p = tmp_path / "twice.tsv"
    p.write_text("1\t1\thead\t\n5\t1\tmember\t0.9\n5\t5\thead\t\n")
    with pytest.raises(DataError, match=f"^{p}:3: image 5 already in cluster 1$"):
        read_clusters_tsv(p)
    # a head repeated among its own members
    p.write_text("1\t1\thead\t\n\n1\t1\tmember\t0.9\n")
    with pytest.raises(DataError, match=f"^{p}:3: image 1 already in cluster 1$"):
        read_clusters_tsv(p)


def test_cluster_table_views_and_id_map():
    table = ClusterTable([12, 1, 9, 4], [4, 1, 4, 4], [False, True, True, False], [0.75, np.nan, np.nan, 0.971234])
    # rows in cluster-file order: by cluster id, head first, members by id
    assert table.image.tolist() == [1, 9, 4, 12]
    assert table.cluster.tolist() == [1, 4, 4, 4]
    assert table.head.tolist() == [True, True, False, False]
    assert np.isnan(table.score[:2]).all() and table.score[2:].tolist() == [0.971234, 0.75]
    assert not table.image.flags.writeable
    assert len(table) == 2 and table.sizes.tolist() == [1, 3]
    assert table.cluster_ids.tolist() == [1, 4] and table.heads.tolist() == [1, 9]
    by_id = ClusterIndex(table)
    assert list(by_id) == [1, 4] and len(by_id) == 2
    assert by_id[4] == (4, 9, [(4, 0.971234), (12, 0.75)])
    assert by_id[4].image_ids == [9, 4, 12] and by_id[4].size == 3
    assert list(by_id.values()) == list(table)
    # each view reads the table's own rows
    for view, lo, size in zip(table, table.starts.tolist(), table.sizes.tolist()):
        assert (view.cluster_id, view.head) == (table.cluster[lo], table.image[lo])
        assert view.members == list(zip(table.image[lo + 1 : lo + size].tolist(), table.score[lo + 1 : lo + size].tolist()))
    for missing in (2, -1, 2**64, "4"):
        assert missing not in by_id
    assert len(ClusterTable()) == 0 and clusters_to_tsv(ClusterTable()) == ""
