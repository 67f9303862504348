"""Batch top-K candidate retrieval by LSH term overlap.

Queries and the index are joined term-by-term: every (query, indexed image)
pair sharing a term contributes one co-occurrence, so the number of shared
terms is exactly the pair's overlap count. Pairs reaching min_overlap become
hits, ranked per query by (overlap desc, index image id asc) and truncated
to K. A query indexed under its own id never matches itself.
"""

from typing import NamedTuple

import numpy as np

from .embeddings import EmbeddingSet, LshConfig, derive_terms_matrix, hamming_distance_matrix
from .errors import ConfigMismatchError, DataError
from .index import PostingIndex, sorted_runs


class SearchHit(NamedTuple):
    index_image: int
    overlap: int
    jaccard: float


class SearchResultBatch(dict):
    """Map of query ImageId -> list[SearchHit]; every query id is present."""


def unordered_pairs(hits: SearchResultBatch):
    """Each unordered (query, hit) pair once, as aligned uint64 arrays (a, b)
    with a < b, sorted by (a, b). A hit on the query's own id is dropped."""
    n = sum(len(v) for v in hits.values())
    q = np.fromiter((q for q, hl in hits.items() for _ in hl), dtype=np.uint64, count=n)
    h = np.fromiter((x.index_image for hl in hits.values() for x in hl), dtype=np.uint64, count=n)
    a, b = np.minimum(q, h), np.maximum(q, h)
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    keep = a != b
    keep[1:] &= (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return a[keep], b[keep]


def overlap_pairs(queries: EmbeddingSet, index: PostingIndex, min_overlap: int = 2):
    """All (query_id, index_id, overlap) triples with overlap >= min_overlap.

    This is the pre-truncation result: no K applied, self-matches removed.
    Returns three aligned arrays (uint64, uint64, int64).
    """
    if min_overlap < 1:
        raise DataError(f"min_overlap must be >= 1, got {min_overlap}")
    if queries.d != index.config.d:
        raise ConfigMismatchError(f"queries have d={queries.d}, index built at d={index.config.d}")
    q_ids = queries.ids
    q_terms = derive_terms_matrix(queries.bits_matrix(), index.config)
    n_q = q_ids.shape[0]
    empty = (np.zeros(0, np.uint64), np.zeros(0, np.uint64), np.zeros(0, np.int64))
    if n_q == 0 or len(index.dictionary) == 0:
        return empty

    # query-side inverted lists: sort (term, query row) pairs by term
    flat_t = q_terms.reshape(-1)
    flat_q = np.repeat(np.arange(n_q, dtype=np.uint32), index.config.term_count)
    order = np.lexsort((flat_q, flat_t))
    flat_t = flat_t[order]
    flat_q = flat_q[order]
    q_uniq_terms, q_offsets = sorted_runs(flat_t)

    # join on terms present in both sides, found with one sorted lookup
    pos = np.searchsorted(index.terms, q_uniq_terms)
    found = pos < index.terms.size
    found[found] &= index.terms[pos[found]] == q_uniq_terms[found]
    qi = np.flatnonzero(found)
    pi = pos[qi]
    key_parts = []
    for q_lo, q_hi, p_lo, p_hi in zip(
        q_offsets[qi].tolist(), q_offsets[qi + 1].tolist(),
        index.offsets[pi].tolist(), index.offsets[pi + 1].tolist(),
    ):
        qs = flat_q[q_lo:q_hi]
        post = index.ids[p_lo:p_hi]
        # cross product qs x post, query-major
        q_rep = np.repeat(qs.astype(np.uint64), post.size)
        p_tile = np.tile(post.astype(np.uint64), qs.size)
        key_parts.append((q_rep << np.uint64(32)) | p_tile)
    if not key_parts:
        return empty
    keys = np.concatenate(key_parts)
    uniq, counts = np.unique(keys, return_counts=True)

    keep = counts >= min_overlap
    uniq = uniq[keep]
    counts = counts[keep]
    q_rows = (uniq >> np.uint64(32)).astype(np.int64)
    dense = (uniq & np.uint64(0xFFFFFFFF)).astype(np.int64)
    ext_q = q_ids[q_rows]
    ext_i = index.dictionary.external[dense]
    not_self = ext_q != ext_i
    return ext_q[not_self], ext_i[not_self], counts[not_self].astype(np.int64)


def batch_search(queries: EmbeddingSet, index: PostingIndex, k: int = 20, min_overlap: int = 2) -> SearchResultBatch:
    """Top-K term-overlap search for a batch of queries."""
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    ext_q, ext_i, counts = overlap_pairs(queries, index, min_overlap=min_overlap)

    t = index.config.term_count
    result = SearchResultBatch((int(q), []) for q in queries.ids)
    if ext_q.size:
        # sort by (query, -overlap, index id) then cut each query's run at k
        order = np.lexsort((ext_i, -counts, ext_q))
        ext_q, ext_i, counts = ext_q[order], ext_i[order], counts[order]
        jacc = counts / (2 * t - counts)
        run_starts = np.concatenate(([0], np.nonzero(np.diff(ext_q))[0] + 1))
        run_ends = np.append(run_starts[1:], ext_q.size)
        for s, e in zip(run_starts, run_ends):
            hits = [
                SearchHit(int(ext_i[j]), int(counts[j]), float(jacc[j]))
                for j in range(s, min(e, s + k))
            ]
            result[int(ext_q[s])] = hits
    return result


def recall_at_distance(
    embeddings: EmbeddingSet,
    group_of: np.ndarray,
    config: LshConfig,
    distance_threshold: int,
    k: int = 100,
    min_overlap: int = 2,
) -> float:
    """Fraction of same-group pairs within hamming distance_threshold that
    search retrieves (in either direction) when the whole corpus is indexed
    and queried against itself.

    group_of[i] is the ground-truth group of embeddings.ids[i]. Returns 1.0
    when no pair is within the threshold (nothing to miss).
    """
    from .index import build_index

    if group_of.shape[0] != len(embeddings):
        raise DataError("group_of must align with embeddings")
    order = np.argsort(group_of, kind="stable")
    sorted_groups = group_of[order]
    bounds = np.nonzero(np.diff(sorted_groups))[0] + 1
    starts = np.concatenate(([0], bounds))
    ends = np.append(starts[1:], sorted_groups.size)

    rows_a, rows_b = [], []
    for s, e in zip(starts, ends):
        rows = order[s:e]
        if rows.size < 2:
            continue
        ia, ib = np.triu_indices(rows.size, k=1)
        rows_a.append(rows[ia])
        rows_b.append(rows[ib])
    if not rows_a:
        return 1.0
    rows_a = np.concatenate(rows_a)
    rows_b = np.concatenate(rows_b)
    dist = hamming_distance_matrix(embeddings, rows_a, embeddings, rows_b)
    close = dist <= distance_threshold
    rows_a, rows_b = rows_a[close], rows_b[close]
    if rows_a.size == 0:
        return 1.0

    index = build_index(embeddings, config)
    got_a, got_b = unordered_pairs(batch_search(embeddings, index, k=k, min_overlap=min_overlap))
    retrieved = set(zip(got_a.tolist(), got_b.tolist()))
    want_a = embeddings.ids[rows_a]
    want_b = embeddings.ids[rows_b]
    wanted = zip(np.minimum(want_a, want_b).tolist(), np.maximum(want_a, want_b).tolist())
    return sum(pair in retrieved for pair in wanted) / rows_a.size
