"""Batch search against a slow exhaustive oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neardup import (
    ConfigMismatchError,
    DataError,
    EmbeddingSet,
    LshConfig,
    PostingIndex,
    batch_search,
    build_index,
    load_index,
    overlap_pairs,
    recall_at_distance,
    save_index,
    search,
    self_pairs,
    top_pairs,
    unordered_pairs,
)
from neardup.embeddings import derive_terms_matrix
from neardup.search import RECALL_K, SearchHit, SearchResultBatch, join_blocks

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
    a, b = unordered_pairs(SearchResultBatch([top], [top, top], [3, top], [2, 6], [0.2, 1.0]))
    assert (a.tolist(), b.tolist()) == ([3], [top])


def test_bad_parameters_rejected(lsh64, rng):
    index = build_index(random_set(rng, 5), lsh64)
    with pytest.raises(DataError):
        batch_search(random_set(rng, 2), index, k=0)
    with pytest.raises(DataError):
        overlap_pairs(random_set(rng, 2), index, min_overlap=0)
    with pytest.raises(DataError):
        self_pairs(index, min_overlap=0)
    with pytest.raises(DataError):
        top_pairs(self_pairs(index), k=0)


def test_empty_query_batch(lsh64, rng):
    index = build_index(random_set(rng, 5), lsh64)
    assert batch_search(random_set(rng, 0), index) == {}


def recall_candidates(emb, cfg):
    """The pairs evaluate hands recall_at_distance: the self-join cut to RECALL_K."""
    return top_pairs(self_pairs(build_index(emb, cfg)), RECALL_K)


def test_recall_at_distance_star(lsh64):
    # one group of four within distance 4 of each other, plus noise groups
    members = [(0, []), (1, [0]), (2, [1]), (3, [0, 1])]
    noise = [(10 + i, list(range(i, i + 18))) for i in range(4)]
    emb = star_set(64, 21, members + noise)
    groups = np.array([0, 0, 0, 0, 1, 2, 3, 4])
    assert recall_at_distance(emb, groups, recall_candidates(emb, lsh64), distance_threshold=4) == 1.0
    # a pair the candidates miss counts against recall, in either order
    a, b, _ = recall_candidates(emb, lsh64)
    close = (a < 4) & (b < 4)
    assert close.sum() == 6
    assert recall_at_distance(emb, groups, (b[close][1:], a[close][1:]), distance_threshold=4) == 5 / 6


def test_recall_at_distance_nothing_close(lsh64):
    # same group but far apart: no pair within threshold, vacuous recall
    members = [(0, []), (1, list(range(30)))]
    emb = star_set(64, 22, members)
    groups = np.array([0, 0])
    assert recall_at_distance(emb, groups, recall_candidates(emb, lsh64), distance_threshold=4) == 1.0
    # a negative radius holds no pair, so it would read as nothing to miss
    with pytest.raises(DataError, match="distance must be >= 0, got -1"):
        recall_at_distance(emb, groups, recall_candidates(emb, lsh64), distance_threshold=-1)


def test_recall_at_distance_alignment_checked(lsh64):
    emb = star_set(64, 23, [(0, []), (1, [0])])
    with pytest.raises(DataError):
        recall_at_distance(emb, np.array([0]), recall_candidates(emb, lsh64), distance_threshold=4)


# -- the blocked join against the brute-force oracle ---------------------------

# the lsh64 fixture as a constant: hypothesis tests take no function-scoped fixtures
LSH64 = LshConfig(d=64, selected_bits=tuple(range(36)), term_bits=6)


def clustered_set(rng, n, n_bases, flip_p, id_space=10_000):
    """n rows scattered around a few random bases, under shuffled ids, so
    pairs share many terms, overlaps tie often, and dense order is not id order."""
    bases = rng.integers(0, 2, size=(n_bases, 64), dtype=np.uint8)
    bits = bases[rng.integers(n_bases, size=n)]
    bits ^= (rng.random((n, 64)) < flip_p).astype(np.uint8)
    ids = rng.choice(id_space, size=n, replace=False).astype(np.uint64)
    return EmbeddingSet.from_bits(ids, bits)


def ranked_oracle(queries, indexed, cfg, min_overlap, k):
    """query id -> [(hit id, overlap)] by (overlap desc, id asc), first k."""
    per_query = {int(q): [] for q in queries.ids}
    for q, i, c in search_oracle(queries, indexed, cfg, min_overlap):
        per_query[q].append((i, c))
    return {q: sorted(v, key=lambda ic: (-ic[1], ic[0]))[:k] for q, v in per_query.items()}


def takes_half_path(queries, index):
    terms = derive_terms_matrix(queries.bits_matrix(), index.config)
    return search._self_join_lists(queries, terms, index)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    n_bases=st.integers(1, 4),
    flip_p=st.sampled_from([0.0, 0.02, 0.08, 0.3]),
    case=st.sampled_from(["self", "self_copy", "same_ids_other_bits", "subset", "reordered", "head_only"]),
    k=st.sampled_from([1, 2, 5, 100]),
    min_overlap=st.integers(1, 3),
    budget=st.sampled_from([1, 2, 5, 17, 64, None]),
)
def test_join_matches_brute_force(seed, n, n_bases, flip_p, case, k, min_overlap, budget):
    rng = np.random.default_rng(seed)
    indexed = clustered_set(rng, n, n_bases, flip_p)
    queries = indexed
    index_set = indexed
    if case == "self_copy":
        queries = EmbeddingSet.from_bits(indexed.ids.copy(), indexed.bits_matrix().copy())
    elif case == "same_ids_other_bits":
        bits = indexed.bits_matrix().copy()
        bits[rng.integers(n), rng.integers(36)] ^= 1  # one selected bit moves one term
        queries = EmbeddingSet.from_bits(indexed.ids, bits)
    elif case == "subset":
        queries = indexed.subset(rng.choice(indexed.ids, size=rng.integers(1, n + 1), replace=False))
    elif case == "reordered":
        queries = indexed.subset(indexed.ids[::-1])
    elif case == "head_only":
        index_set = indexed.subset(rng.choice(indexed.ids, size=rng.integers(1, n + 1), replace=False))
    index = build_index(index_set, LSH64)
    # the half path is for the indexed set itself: same ids in dense order, same terms
    same = np.array_equal(queries.ids, index_set.ids) and np.array_equal(
        derive_terms_matrix(queries.bits_matrix(), LSH64),
        derive_terms_matrix(index_set.bits_matrix(), LSH64),
    )
    assert same == (case in ("self", "self_copy")) or case in ("subset", "reordered", "head_only")
    assert takes_half_path(queries, index) == same

    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(search, "JOIN_KEY_BUDGET", budget)
        got_q, got_i, got_c = overlap_pairs(queries, index, min_overlap=min_overlap)
        hits = batch_search(queries, index, k=k, min_overlap=min_overlap)

    # overlap_pairs: every pair once per direction, in (query row, dense id) order
    q_row = {int(v): r for r, v in enumerate(queries.ids)}
    i_row = {int(v): r for r, v in enumerate(index_set.ids)}
    want = sorted(
        search_oracle(queries, index_set, LSH64, min_overlap),
        key=lambda qic: (q_row[qic[0]], i_row[qic[1]]),
    )
    assert list(zip(got_q.tolist(), got_i.tolist(), got_c.tolist())) == want
    assert got_q.dtype == got_i.dtype == np.uint64 and got_c.dtype == np.int64

    # batch_search: top k per query, every query present, jaccard from the overlap
    t = LSH64.term_count
    assert list(hits) == [int(q) for q in queries.ids]
    got = {q: [(h.index_image, h.overlap) for h in hl] for q, hl in hits.items()}
    assert got == ranked_oracle(queries, index_set, LSH64, min_overlap, k)
    assert all(h.jaccard == h.overlap / (2 * t - h.overlap) for hl in hits.values() for h in hl)
    assert np.all(hits.query[1:] >= hits.query[:-1])


@settings(max_examples=200, deadline=None)
@given(
    row_keys=st.lists(st.integers(0, 40), max_size=60),
    budget=st.integers(1, 100),
)
def test_join_blocks_stay_within_budget(row_keys, budget):
    keys = np.array(row_keys, dtype=np.int64)
    bounds = join_blocks(keys, budget)
    assert bounds[0] == 0 and bounds[-1] == keys.size
    for start, stop in zip(bounds[:-1], bounds[1:]):
        assert stop > start
        block = int(keys[start:stop].sum())
        # within budget unless the block is one row; and no room for the next row
        assert block <= budget or stop == start + 1
        if stop < keys.size:
            assert block + keys[stop] > budget


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    n_bases=st.integers(1, 4),
    flip_p=st.sampled_from([0.0, 0.02, 0.08, 0.3]),
    k=st.sampled_from([1, 2, 5, 100]),
    min_overlap=st.integers(1, 3),
    budget=st.sampled_from([1, 5, 64, None]),
)
# one base, few flips: every row has more than k hits, so the trim drops pairs
@example(seed=1, n=40, n_bases=1, flip_p=0.02, k=2, min_overlap=1, budget=None)
@example(seed=2, n=30, n_bases=2, flip_p=0.08, k=5, min_overlap=3, budget=5)
def test_self_pairs_are_unordered_pairs_of_batch_search(seed, n, n_bases, flip_p, k, min_overlap, budget):
    rng = np.random.default_rng(seed)
    indexed = clustered_set(rng, n, n_bases, flip_p)
    index = build_index(indexed, LSH64)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(search, "JOIN_KEY_BUDGET", budget)
        pairs = self_pairs(index, min_overlap)
        want_a, want_b = unordered_pairs(batch_search(indexed, index, k=k, min_overlap=min_overlap))

    # untrimmed: each oracle pair once, a < b by id, sorted by (a, b)
    oracle = sorted((q, i, c) for q, i, c in search_oracle(indexed, indexed, LSH64, min_overlap) if q < i)
    assert list(zip(*(p.tolist() for p in pairs))) == oracle
    assert pairs[0].dtype == pairs[1].dtype == np.uint64 and pairs[2].dtype == np.int64

    a, b, overlap = top_pairs(pairs, k)
    np.testing.assert_array_equal(a, want_a)
    np.testing.assert_array_equal(b, want_b)
    overlap_of = {(x, y): c for x, y, c in oracle}
    assert overlap.tolist() == [overlap_of[p] for p in zip(a.tolist(), b.tolist())]
    # a dropped pair has more than k hits at both ends
    ends, hits = np.unique(np.concatenate(pairs[:2]), return_counts=True)
    over = set(ends[hits > k].tolist())
    dropped = set(zip(*(p.tolist() for p in pairs[:2]))) - set(zip(a.tolist(), b.tolist()))
    assert all(x in over and y in over for x, y in dropped)


def test_self_pairs_need_one_posting_per_image_and_term_column(lsh64, rng):
    indexed = clustered_set(rng, 12, 2, 0.02)
    index = build_index(indexed, lsh64)
    # one posting short; or the first posting moved to another image, which
    # then has two postings in that term column
    short = PostingIndex(lsh64, index.dictionary, index.terms, np.r_[index.offsets[:-1], index.ids.size - 1], index.ids[:-1])
    ids = index.ids.copy()
    ids[0] = (ids[0] + 1) % len(indexed)
    doubled = PostingIndex(lsh64, index.dictionary, index.terms, index.offsets, ids)
    for bad in (short, doubled):
        with pytest.raises(DataError, match="self-join needs"):
            self_pairs(bad)


def test_self_join_materialises_half_the_keys(lsh64, rng, monkeypatch):
    indexed = clustered_set(rng, 60, 3, 0.05)
    index = build_index(indexed, lsh64)
    seen = []
    join = search._join
    monkeypatch.setattr(search, "_join", lambda lo, hi, *a: seen.append(int((hi - lo).sum())) or join(lo, hi, *a))
    self_pairs(index)
    lengths = np.diff(index.offsets)
    # each list of length L pairs its postings L * (L - 1) / 2 times
    assert seen == [int((lengths * (lengths - 1) // 2).sum())]


def test_unsorted_posting_list_is_not_self_joined(lsh64, rng):
    # the half join needs each list to rise; a hand-made index breaking that
    # takes the general join, which does not
    indexed = clustered_set(rng, 12, 2, 0.02)
    index = build_index(indexed, lsh64)
    lengths = np.diff(index.offsets)
    longest = int(np.argmax(lengths))
    ids = index.ids.copy()
    ids[index.offsets[longest] : index.offsets[longest + 1]] = ids[index.offsets[longest] : index.offsets[longest + 1]][::-1]
    shuffled = PostingIndex(lsh64, index.dictionary, index.terms, index.offsets, ids)
    assert takes_half_path(indexed, index) and not takes_half_path(indexed, shuffled)
    for m in (1, 2):
        got = overlap_pairs(indexed, shuffled, min_overlap=m)
        want = overlap_pairs(indexed, index, min_overlap=m)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


def test_loaded_index_takes_the_half_join(lsh64, rng, tmp_path, monkeypatch):
    # search --index reads its index from a file: read back, the index still
    # holds exactly the lists build_index makes, so the half join applies
    indexed = clustered_set(rng, 50, 3, 0.05)
    save_index(build_index(indexed, lsh64), tmp_path / "self.ndix")
    loaded = load_index(tmp_path / "self.ndix")
    # the same ids in another dictionary order are not the indexed set
    save_index(build_index(indexed.subset(indexed.ids[::-1]), lsh64), tmp_path / "reversed.ndix")
    assert takes_half_path(indexed, loaded) and not takes_half_path(indexed, load_index(tmp_path / "reversed.ndix"))
    half = [overlap_pairs(indexed, loaded, min_overlap=m) for m in (1, 2, 3)]
    monkeypatch.setattr(search, "_self_join_lists", lambda *args: False)
    for m, got in zip((1, 2, 3), half):
        for g, w in zip(got, overlap_pairs(indexed, loaded, min_overlap=m)):
            np.testing.assert_array_equal(g, w)


def test_search_result_batch_lookup():
    batch = SearchResultBatch([5, 1, 3], [3, 5, 5], [5, 9, 2], [2, 4, 3], [0.1, 0.5, 0.25])
    assert list(batch) == [5, 1, 3] and len(batch) == 3
    assert batch[5] == [SearchHit(9, 4, 0.5), SearchHit(2, 3, 0.25)]  # array order kept within a query
    assert batch[1] == [] and 1 in batch and 2 not in batch and -1 not in batch
    assert batch == {5: [(9, 4, 0.5), (2, 3, 0.25)], 1: [], 3: [(5, 2, 0.1)]}
    with pytest.raises(KeyError):
        batch[2]
    with pytest.raises(ValueError):
        batch.hit[0] = 1  # read-only
    with pytest.raises(DataError):
        SearchResultBatch([5], [5, 5], [9], [4], [0.5])  # hit arrays must align
