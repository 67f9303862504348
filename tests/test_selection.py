"""Candidate selection against cluster heads, driven by the popcount model
so every score is a known function of hamming distance."""

import math

import numpy as np
import pytest

from neardup import (
    ClusterHeads,
    ClusterTable,
    DataError,
    HeadMatches,
    SearchResultBatch,
    emit_augmentation_labels,
    select_candidates,
    select_edges,
    unordered_pairs,
)

from conftest import cluster_table, popcount_model, star_set

D = 64
THETA = 9.5  # pass at threshold 0.5 <=> hamming <= 9


def score_at(h):
    return 1.0 / (1.0 + math.exp(-8.0 * (THETA - h)))


def hit(q, *head_ids):
    return q, head_ids


def hits_of(*entries):
    """The SearchResultBatch of hit(query, *head_ids) entries, each hit with
    overlap 6 and jaccard 0.5."""
    query = np.array([q for q, hs in entries for _ in hs], dtype=np.uint64)
    order = np.argsort(query, kind="stable")
    hit_ids = np.array([h for _, hs in entries for h in hs], dtype=np.uint64)[order]
    return SearchResultBatch([q for q, _ in entries], query[order], hit_ids, [6] * query.size, [0.5] * query.size)


def heads_of(*entries):
    """ClusterHeads of (cluster_id, head, augmentation list) entries: the
    heads of a table whose members are each list's (member, score) pairs,
    with k_aug large enough to keep every list whole."""
    table = cluster_table(entries)
    return ClusterHeads.from_table(table, max(len(a) for _, _, a in entries))


def rows(matches):
    """(query, cluster, via, score) per match, in order."""
    return list(
        zip(matches.query.tolist(), matches.cluster.tolist(), matches.via.tolist(), matches.score.tolist())
    )


def queries(matches):
    return matches.query.tolist()


@pytest.fixture
def model():
    return popcount_model(D, THETA)


@pytest.fixture
def store():
    """One cluster: head 100, augmentation D=103 (dist 4), B=101 (dist 6),
    C=102 (dist 6). Query 200 is 12 bits from the head, 6 from B, 16 from D.
    Query 201 is 2 bits from the head."""
    emb = star_set(
        D,
        17,
        [
            (100, []),
            (101, list(range(0, 6))),
            (102, list(range(20, 26))),
            (103, list(range(30, 34))),
            (200, list(range(0, 12))),
            (201, [0, 1]),
        ],
    )
    heads = heads_of((1, 100, [(103, score_at(4)), (101, score_at(6)), (102, score_at(6))]))
    return emb, heads


def test_match_via_augmentation_member(store, model):
    emb, heads = store
    hits = hits_of(hit(200, 100))
    ((query, cluster, via, score),) = rows(select_candidates(hits, heads, model, emb, threshold=0.5, k_aug=3))
    assert query == 200
    assert cluster == 1
    assert via == 101  # head failed (12), aug member D failed (16), B passed (6)
    assert score == pytest.approx(score_at(6))


def test_match_via_head_short_circuits(store, model):
    emb, heads = store
    hits = hits_of(hit(201, 100))
    ((_, _, via, score),) = rows(select_candidates(hits, heads, model, emb, threshold=0.5, k_aug=3))
    assert via == 100
    assert score == pytest.approx(score_at(2))


def test_k_aug_zero_is_heads_only(store, model):
    emb, heads = store
    hits = hits_of(hit(200, 100), hit(201, 100))
    plain = select_candidates(hits, heads, model, emb, threshold=0.5, k_aug=0)
    assert queries(plain) == [201]
    augmented = select_candidates(hits, heads, model, emb, threshold=0.5, k_aug=3)
    assert queries(augmented) == [200, 201]
    # k_aug=1 tries only the first member (dist 4 from head, 16 from query)
    one = select_candidates(hits, heads, model, emb, threshold=0.5, k_aug=1)
    assert queries(one) == [201]


def test_augmentation_matches_are_a_superset(store, model):
    emb, heads = store
    hits = hits_of(hit(200, 100), hit(201, 100))
    plain = set(queries(select_candidates(hits, heads, model, emb, 0.5, k_aug=0)))
    aug = set(queries(select_candidates(hits, heads, model, emb, 0.5, k_aug=3)))
    assert plain < aug


def test_raising_threshold_only_loses_matches(store, model):
    emb, heads = store
    hits = hits_of(hit(200, 100), hit(201, 100))
    for lo, hi in [(0.3, 0.6), (0.5, 0.99), (0.1, 0.9)]:
        at_lo = set(queries(select_candidates(hits, heads, model, emb, lo, 3)))
        at_hi = set(queries(select_candidates(hits, heads, model, emb, hi, 3)))
        assert at_hi <= at_lo


def test_best_cluster_wins(model):
    # query 200 is 6 bits from head 100 and 2 bits from head 110
    emb = star_set(D, 19, [(100, []), (110, list(range(8))), (200, list(range(6)))])
    heads = heads_of((1, 100, []), (2, 110, []))
    hits = hits_of(hit(200, 100, 110))
    ((_, cluster, _, score),) = rows(select_candidates(hits, heads, model, emb, threshold=0.5))
    assert cluster == 2
    assert score == pytest.approx(score_at(2))


def test_equal_scores_prefer_smaller_cluster_id(model):
    # both heads are exactly 2 bits from the query: identical scores
    emb = star_set(D, 23, [(100, []), (110, [0, 1, 2, 3]), (200, [0, 1])])
    heads = heads_of((5, 100, []), (2, 110, []))
    hits = hits_of(hit(200, 100, 110))
    ((_, cluster, _, _),) = rows(select_candidates(hits, heads, model, emb, threshold=0.5))
    assert cluster == 2


def test_results_sorted_by_query(store, model):
    emb, heads = store
    hits = hits_of(hit(201, 100), hit(200, 100))
    out = select_candidates(hits, heads, model, emb, threshold=0.5, k_aug=3)
    assert queries(out) == [200, 201]
    assert len(out) == 2


def test_unknown_head_rejected(store, model):
    emb, heads = store
    with pytest.raises(DataError):
        select_candidates(hits_of(hit(200, 999)), heads, model, emb, 0.5)


def test_parameter_validation(store, model):
    emb, heads = store
    hits = hits_of(hit(201, 100))
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DataError):
            select_candidates(hits, heads, model, emb, bad)
    with pytest.raises(DataError):
        select_candidates(hits, heads, model, emb, 0.5, k_aug=-1)


def test_augmentation_match_emits_head_label(store, model, monkeypatch):
    from neardup import selection

    emb, heads = store
    hits = hits_of(hit(200, 100), hit(201, 100))
    matches = select_candidates(hits, heads, model, emb, threshold=0.5, k_aug=3)

    def no_scoring(*args):
        raise AssertionError("emit_augmentation_labels must not score")

    # the head already scored below the threshold when the match was made
    monkeypatch.setattr(selection, "predict_rows", no_scoring)
    labels = emit_augmentation_labels(matches, heads)
    # only the aug-won match produces a label, and it points at the head
    assert labels.tolist() == [[200, 100, 1]]
    with pytest.raises(DataError):
        emit_augmentation_labels(matches, ClusterHeads.from_table(ClusterTable(), 0))


def test_no_labels_when_heads_match(store, model):
    emb, heads = store
    hits = hits_of(hit(201, 100))
    matches = select_candidates(hits, heads, model, emb, threshold=0.5)
    assert emit_augmentation_labels(matches, heads).shape == (0, 3)
    assert emit_augmentation_labels(HeadMatches(), heads).shape == (0, 3)


def test_heads_from_table_keep_top_k_by_score_then_id(rng):
    # the per-cluster sort each head entry used to be built with, as oracle
    clusters = []
    pool = iter(rng.permutation(10_000).tolist())
    for cid in range(30):
        head = next(pool)
        scores = rng.choice([0.5, 0.75, 0.9], size=int(rng.integers(0, 7)))
        clusters.append((cid, head, [(next(pool), float(sc)) for sc in scores]))
    table = cluster_table(clusters)
    for k_aug in (0, 1, 3, 10):
        want = [(cid, head, sorted(members, key=lambda ms: (-ms[1], ms[0]))[:k_aug]) for cid, head, members in clusters]
        assert head_entries(ClusterHeads.from_table(table, k_aug)) == want
        # listed members are the lists themselves, however large k_aug is
        listed = [m for _, _, aug in want for m, _ in aug]
        assert head_entries(ClusterHeads.from_table(table, 10, listed=listed)) == want
    with pytest.raises(DataError, match="more than k_aug=2 listed"):
        ClusterHeads.from_table(table, 2, listed=table.image[~table.head])


def head_entries(heads):
    """(cluster, head, augmentation list) per cluster."""
    bounds = heads.aug_offsets.tolist()
    aug = list(zip(heads.aug_image.tolist(), heads.aug_score.tolist()))
    return [(c, h, aug[lo:hi]) for c, h, lo, hi in zip(heads.cluster.tolist(), heads.head.tolist(), bounds, bounds[1:])]


def test_select_edges_filters_at_threshold(model):
    emb = star_set(
        D, 29, [(0, []), (1, [0, 1]), (2, list(range(8))), (3, list(range(20)))]
    )
    # query 2's hit on 0 is the reverse of a pair of query 0
    hits = SearchResultBatch([0, 2], [0, 0, 0, 2], [1, 2, 3, 0], [6, 4, 2, 4], [0.5, 0.3, 0.1, 0.3])
    a, b = unordered_pairs(hits)
    assert list(zip(a.tolist(), b.tolist())) == [(0, 1), (0, 2), (0, 3)]
    edges_a, edges_b, scores, scored = select_edges(a, b, model, emb, threshold=0.5)
    # hamming 2 and 8 pass theta 9.5, hamming 20 does not
    assert list(zip(edges_a.tolist(), edges_b.tolist())) == [(0, 1), (0, 2)]
    assert scores[0] == pytest.approx(score_at(2))
    assert scores[1] == pytest.approx(score_at(8))
    assert scored == 3  # one window: nothing is joined before it is scored
    none = select_edges(*unordered_pairs(SearchResultBatch()), model, emb, 0.5)
    assert [x.size for x in none[:3]] == [0, 0, 0] and none[3] == 0
    with pytest.raises(DataError):
        select_edges(a, b, model, emb, 0.0)
