"""Batch search against a slow exhaustive oracle."""

import numpy as np
import pytest

from neardup import (
    ConfigMismatchError,
    DataError,
    EmbeddingSet,
    batch_search,
    build_index,
    overlap_pairs,
    recall_at_distance,
    unordered_pairs,
)
from neardup.search import SearchHit, SearchResultBatch

from conftest import star_set, term_sets


def search_oracle(queries, indexed, cfg, min_overlap):
    """Every pair, counted by set intersection. No ranking, no truncation."""
    q_sets = term_sets(queries, cfg)
    i_sets = term_sets(indexed, cfg)
    hits = set()
    for q, qt in q_sets.items():
        for i, it in i_sets.items():
            if i == q:
                continue
            c = len(qt & it)
            if c >= min_overlap:
                hits.add((q, i, c))
    return hits


def random_set(rng, n, d=64, start_id=0):
    bits = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
    ids = np.arange(start_id, start_id + n, dtype=np.uint64)
    return EmbeddingSet.from_bits(ids, bits)


def test_overlap_pairs_matches_oracle(lsh64, rng):
    # dense enough that plenty of random pairs share groups
    for trial in range(5):
        indexed = random_set(rng, 120, start_id=1000 * trial)
        queries = random_set(rng, 40, start_id=1000 * trial + 500)
        index = build_index(indexed, lsh64)
        for min_overlap in (1, 2, 4):
            got_q, got_i, got_c = overlap_pairs(queries, index, min_overlap=min_overlap)
            got = {(int(q), int(i), int(c)) for q, i, c in zip(got_q, got_i, got_c)}
            assert got == search_oracle(queries, indexed, lsh64, min_overlap)


def test_identity_query_full_overlap(lsh64, rng):
    indexed = random_set(rng, 30)
    index = build_index(indexed, lsh64)
    # same bits under a fresh id: all terms agree
    twin = EmbeddingSet.from_bits(
        np.array([999], dtype=np.uint64), indexed.bits_matrix()[:1]
    )
    hits = batch_search(twin, index, k=5)[999]
    assert hits[0].index_image == 0
    assert hits[0].overlap == lsh64.term_count
    assert hits[0].jaccard == 1.0


def test_disjoint_query_absent(lsh64):
    zeros = EmbeddingSet.from_bits(
        np.array([1], dtype=np.uint64), np.zeros((1, 64), dtype=np.uint8)
    )
    ones = EmbeddingSet.from_bits(
        np.array([2], dtype=np.uint64), np.ones((1, 64), dtype=np.uint8)
    )
    # every selected group differs, so not even one shared term
    result = batch_search(ones, build_index(zeros, lsh64), min_overlap=1)
    assert result[2] == []
    assert set(result) == {2}  # query id present even with no hits


def test_min_overlap_monotone(lsh64, rng):
    indexed = random_set(rng, 200)
    queries = random_set(rng, 50, start_id=5000)
    index = build_index(indexed, lsh64)
    loose = search_oracle(queries, indexed, lsh64, 1)
    for m in (2, 3, 4, 5):
        q, i, c = overlap_pairs(queries, index, min_overlap=m)
        assert all(int(x) >= m for x in c)
        got = {(int(a), int(b), int(x)) for a, b, x in zip(q, i, c)}
        assert got <= loose


def test_self_match_excluded(lsh64, rng):
    indexed = random_set(rng, 10)
    index = build_index(indexed, lsh64)
    # corpus queried against itself: image 0 must not retrieve image 0
    hits = batch_search(indexed, index, k=20, min_overlap=1)
    for q, hs in hits.items():
        assert q not in [h.index_image for h in hs]


def test_duplicate_under_new_id_is_retrieved(lsh64, rng):
    base = random_set(rng, 1)
    copy_bits = np.vstack([base.bits_matrix(), base.bits_matrix()])
    both = EmbeddingSet.from_bits(np.array([7, 8], dtype=np.uint64), copy_bits)
    index = build_index(both, lsh64)
    hits = batch_search(both, index, k=5, min_overlap=1)
    assert [h.index_image for h in hits[7]] == [8]
    assert [h.index_image for h in hits[8]] == [7]
    assert hits[7][0].overlap == lsh64.term_count


def test_ranking_and_truncation(lsh64):
    # engineered overlaps: flipping whole groups of the base kills exactly
    # those groups' terms. id 10 shares 6 terms, 11 shares 4, 12 shares 3.
    members = [
        (10, []),
        (11, [0, 6]),          # groups 0 and 1 differ
        (12, [0, 6, 12]),      # groups 0, 1, 2 differ
        (13, list(range(36))), # nothing shared
    ]
    indexed = star_set(64, 3, members)
    query = star_set(64, 3, [(99, [])])
    index = build_index(indexed, lsh64)

    full = batch_search(query, index, k=10, min_overlap=1)[99]
    assert [(h.index_image, h.overlap) for h in full] == [(10, 6), (11, 4), (12, 3)]
    t = lsh64.term_count
    assert full[1].jaccard == pytest.approx(4 / (2 * t - 4))

    cut = batch_search(query, index, k=2, min_overlap=1)[99]
    assert [(h.index_image, h.overlap) for h in cut] == [(10, 6), (11, 4)]


def test_equal_overlap_breaks_ties_by_id(lsh64):
    # two images at the same overlap: lower id first
    members = [(21, [0, 6]), (20, [12, 18]), (25, [0, 6])]
    indexed = star_set(64, 11, members)
    query = star_set(64, 11, [(99, [])])
    hits = batch_search(query, build_index(indexed, lsh64), k=10, min_overlap=1)[99]
    assert [h.index_image for h in hits] == [20, 21, 25]


def test_config_mismatch_rejected(lsh64, rng):
    index = build_index(random_set(rng, 5), lsh64)
    other = EmbeddingSet.from_bits(
        np.array([1], dtype=np.uint64), np.zeros((1, 128), dtype=np.uint8)
    )
    with pytest.raises(ConfigMismatchError):
        batch_search(other, index)


def test_unordered_pairs_matches_set_oracle(lsh64, rng):
    indexed = random_set(rng, 80)
    hits = batch_search(indexed, build_index(indexed, lsh64), k=5, min_overlap=1)
    want = sorted({(min(q, h.index_image), max(q, h.index_image)) for q, hl in hits.items() for h in hl})
    a, b = unordered_pairs(hits)
    assert a.dtype == b.dtype == np.uint64
    assert list(zip(a.tolist(), b.tolist())) == want
    # ids at the top of the u64 range survive; a hit on the query itself is dropped
    top = 2**64 - 2
    a, b = unordered_pairs(SearchResultBatch([(top, [SearchHit(3, 2, 0.2), SearchHit(top, 6, 1.0)])]))
    assert (a.tolist(), b.tolist()) == ([3], [top])


def test_bad_parameters_rejected(lsh64, rng):
    index = build_index(random_set(rng, 5), lsh64)
    with pytest.raises(DataError):
        batch_search(random_set(rng, 2), index, k=0)
    with pytest.raises(DataError):
        overlap_pairs(random_set(rng, 2), index, min_overlap=0)


def test_empty_query_batch(lsh64, rng):
    index = build_index(random_set(rng, 5), lsh64)
    assert batch_search(random_set(rng, 0), index) == {}


def test_recall_at_distance_star(lsh64):
    # one group of four within distance 4 of each other, plus noise groups
    members = [(0, []), (1, [0]), (2, [1]), (3, [0, 1])]
    noise = [(10 + i, list(range(i, i + 18))) for i in range(4)]
    emb = star_set(64, 21, members + noise)
    groups = np.array([0, 0, 0, 0, 1, 2, 3, 4])
    assert recall_at_distance(emb, groups, lsh64, distance_threshold=4) == 1.0


def test_recall_at_distance_nothing_close(lsh64):
    # same group but far apart: no pair within threshold, vacuous recall
    members = [(0, []), (1, list(range(30)))]
    emb = star_set(64, 22, members)
    groups = np.array([0, 0])
    assert recall_at_distance(emb, groups, lsh64, distance_threshold=4) == 1.0


def test_recall_at_distance_alignment_checked(lsh64):
    emb = star_set(64, 23, [(0, []), (1, [0])])
    with pytest.raises(DataError):
        recall_at_distance(emb, np.array([0]), lsh64, distance_threshold=4)
