"""Classifier pass over search candidates.

Two flavors exist. The static pipeline keeps as edges for clustering the
candidate pairs scoring at or above the threshold that the closure needs:
it scores pairs in ascending hamming order and skips each pair whose two
images the edges kept so far already join, so every pair is scored at most
once and many not at all. The cluster-head flavor matches queries
against existing clusters: the head is scored first and, failing that, each
frozen augmentation member in order; the first image at or above the
threshold decides the match. A query matching several clusters keeps only
the best one. Heads and matches are arrays: ClusterHeads and HeadMatches.
"""

from typing import NamedTuple

import numpy as np

from .classifier import SCORE_CHUNK_ROWS, MlpModel, predict_rows
from .clustering import ClusterTable, check_threshold, merge_labels
from .embeddings import EmbeddingSet, hamming_distance_matrix
from .errors import DataError
from .search import SearchResultBatch
from .util import find_sorted, top_in_groups


class ClusterHeads(NamedTuple):
    """Every cluster's head and frozen augmentation list, as arrays.

    cluster and head hold one entry per cluster, by cluster id; cluster i's
    list is aug_image/aug_score[aug_offsets[i]:aug_offsets[i + 1]]: up to
    k_aug (member, score vs head) entries by descending score, ties to the
    smaller id. Built only by from_table.
    """

    cluster: np.ndarray
    head: np.ndarray
    aug_offsets: np.ndarray
    aug_image: np.ndarray
    aug_score: np.ndarray

    @classmethod
    def from_table(cls, table: ClusterTable, k_aug: int, listed=None) -> "ClusterHeads":
        """Heads of a cluster table; each augmentation list is the top k_aug
        members by (score desc, id asc), or, given listed ids, the members
        listed in that order (more than k_aug in a cluster is a DataError)."""
        member = ~table.head
        owner = np.repeat(np.arange(len(table)), table.sizes)[member]
        image, score = table.image[member], table.score[member]
        if listed is not None:
            on_list = find_sorted(np.sort(np.asarray(listed, dtype=np.uint64)), image)[1]
            owner, image, score = owner[on_list], image[on_list], score[on_list]
            crowded = np.flatnonzero(np.bincount(owner, minlength=len(table)) > k_aug)
            if crowded.size:
                raise DataError(f"cluster {table.cluster_ids[crowded[0]]}: more than k_aug={k_aug} listed members")
        keep = top_in_groups(owner, score, image, k_aug)
        counts = np.bincount(owner[keep], minlength=len(table))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        return cls(table.cluster_ids, table.heads, offsets, image[keep], score[keep])


class HeadMatches:
    """Verified head matches as aligned arrays, one entry per matched query,
    sorted by query id: the cluster matched, the head or augmentation member
    that cleared the threshold (via) and its score."""

    def __init__(self, query=(), cluster=(), via=(), score=()):
        ids = (np.asarray(a, dtype=np.uint64).reshape(-1) for a in (query, cluster, via))
        self.query, self.cluster, self.via = ids
        self.score = np.asarray(score, dtype=np.float64).reshape(-1)

    def __len__(self) -> int:
        return self.query.size


def select_edges(a, b, model: MlpModel, embeddings: EmbeddingSet, threshold: float):
    """Static-pipeline selection over aligned pair arrays, each unordered
    pair once, sorted by (a, b) as self_pairs gives them: the (a, b, score)
    arrays of the edges the closure needs, in input order, and the number
    of pairs scored.

    Clustering needs only connectivity, so a pair whose two images earlier
    edges already join is not scored. The pairs go by ascending hamming
    distance (ties in input order), which puts the likely edges first, in
    windows of SCORE_CHUNK_ROWS: each window drops its pairs already joined,
    scores the rest in one call and joins the endpoints of those scoring
    >= threshold. The edges kept connect the same components as every pair
    that scores >= threshold, and each keeps the score a call over every
    pair gives it, bit for bit (see classifier).
    """
    check_threshold(threshold)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    rows_a, rows_b = embeddings.rows_of(a), embeddings.rows_of(b)
    order = np.argsort(hamming_distance_matrix(embeddings, rows_a, rows_b), kind="stable")
    label = np.arange(len(embeddings))
    keep, scores, scored = np.zeros(a.size, dtype=bool), np.empty(a.size), 0
    for s in range(0, order.size, SCORE_CHUNK_ROWS):
        window = order[s : s + SCORE_CHUNK_ROWS]
        live = window[label[rows_a[window]] != label[rows_b[window]]]
        scores[live] = predict_rows(model, embeddings, rows_a[live], rows_b[live])
        edges = live[scores[live] >= threshold]
        merge_labels(label, rows_a[edges], rows_b[edges])
        keep[edges] = True
        scored += live.size
    return a[keep], b[keep], scores[keep], scored


def select_candidates(
    hits: SearchResultBatch,
    heads: ClusterHeads,
    model: MlpModel,
    embeddings: EmbeddingSet,
    threshold: float,
    k_aug: int = 3,
) -> HeadMatches:
    """Match queries against candidate cluster heads.

    Every hit must name a head in heads. Per (query, cluster) the head is
    tried first, then up to k_aug augmentation members in frozen order; the
    first score >= threshold wins. Per query only the best-scoring cluster
    survives (ties: smaller cluster id).
    """
    check_threshold(threshold)
    if k_aug < 0:
        raise DataError(f"k_aug must be >= 0, got {k_aug}")

    by_head = np.argsort(heads.head, kind="stable")
    pos, found = find_sorted(heads.head[by_head], hits.hit)
    if not found.all():
        raise DataError(f"hit {hits.hit[~found][0]} is not a known cluster head")
    # (query, cluster) candidates in hit order, the first of any repeat kept
    query, cand = hits.query, by_head[pos]
    _, first = np.unique(np.column_stack((query, cand.astype(np.uint64))), axis=0, return_index=True)
    first.sort()
    query, cand = query[first], cand[first]
    n_aug = np.minimum(np.diff(heads.aug_offsets)[cand], k_aug)

    # round 0 scores heads; round r scores augmentation member r-1 of the
    # candidates still unresolved, so batching never changes semantics
    via = np.zeros(query.size, dtype=np.uint64)
    score = np.full(query.size, -np.inf)
    pending = np.arange(query.size)
    for rank in range(k_aug + 1):
        if not pending.size:
            break
        c = cand[pending]
        target = heads.head[c] if rank == 0 else heads.aug_image[heads.aug_offsets[c] + rank - 1]
        rows_q, rows_t = embeddings.rows_of(query[pending]), embeddings.rows_of(target)
        scores = predict_rows(model, embeddings, rows_q, rows_t)
        won = scores >= threshold
        via[pending[won]], score[pending[won]] = target[won], scores[won]
        pending = pending[~won & (n_aug[pending] > rank)]

    # best per query: highest score, then smallest cluster id; a query whose
    # best is -inf matched nothing
    cluster = heads.cluster[cand]
    best = top_in_groups(query, score, cluster, 1)
    best = best[np.isfinite(score[best])]
    return HeadMatches(query[best], cluster[best], via[best], score[best])


def emit_augmentation_labels(matches: HeadMatches, heads: ClusterHeads) -> np.ndarray:
    """Positive (query, head, 1) labels, an (n, 3) uint64 array, for matches
    won by an augmentation member.

    These are exactly the adversarial pairs the classifier got wrong at the
    head: select_candidates tries the head first, so a match won by a member
    means the head scored below the threshold in the same call. Matches via
    the head emit nothing.
    """
    pos, found = find_sorted(heads.cluster, matches.cluster)
    if not found.all():
        raise DataError(f"match names unknown cluster {matches.cluster[~found][0]}")
    head = heads.head[pos]
    aug = matches.via != head
    return np.column_stack((matches.query[aug], head[aug], np.ones(aug.sum(), dtype=np.uint64)))
