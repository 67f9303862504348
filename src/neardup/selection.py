"""Classifier pass over search candidates.

Two flavors exist. The static pipeline scores each unordered candidate pair
once, as a < b (scores are symmetric), and keeps those at or above the
threshold as edges for clustering. The cluster-head flavor matches queries
against existing clusters: the head is scored first and, failing that, each
frozen augmentation member in order; the first image at or above the
threshold decides the match. A query matching several clusters keeps only
the best one.
"""

from dataclasses import dataclass

import numpy as np

from .classifier import MlpModel, predict_rows
from .embeddings import EmbeddingSet
from .errors import DataError
from .search import SearchResultBatch


@dataclass(frozen=True)
class ClusterHeadEntry:
    """A cluster's head plus its frozen augmentation list.

    augmentation holds up to k_aug (member_id, score_vs_head) entries in
    descending score order, fixed when the cluster was created; members
    joining later never enter it.
    """

    cluster_id: int
    head: int
    augmentation: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "augmentation",
            tuple((int(m), float(s)) for m, s in self.augmentation),
        )
        if any(m == self.head for m, _ in self.augmentation):
            raise DataError(f"cluster {self.cluster_id}: head appears in its own augmentation list")


@dataclass(frozen=True)
class VerifiedMatch:
    query: int
    cluster_id: int
    matched_via: int  # head or augmentation member that cleared the threshold
    score: float


def select_edges(a, b, model: MlpModel, embeddings: EmbeddingSet, threshold: float):
    """Static-pipeline selection over aligned pair arrays, as unordered_pairs
    returns them: the (a, b, score) arrays of the pairs scoring >= threshold,
    in input order."""
    _check_threshold(threshold)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    scores = predict_rows(model, embeddings, embeddings.rows_of(a), embeddings.rows_of(b))
    keep = scores >= threshold
    return a[keep], b[keep], scores[keep]


def select_candidates(
    hits: SearchResultBatch,
    heads: dict,
    model: MlpModel,
    embeddings: EmbeddingSet,
    threshold: float,
    k_aug: int = 3,
) -> list:
    """Match queries against candidate cluster heads.

    heads maps head ImageId -> ClusterHeadEntry; every hit must name a known
    head. Per (query, cluster) the head is tried first, then up to k_aug
    augmentation members in frozen order; the first score >= threshold wins.
    Per query only the best-scoring cluster survives (ties: smaller cluster
    id). Returns VerifiedMatch list sorted by query id.
    """
    _check_threshold(threshold)
    if k_aug < 0:
        raise DataError(f"k_aug must be >= 0, got {k_aug}")

    candidates = []  # (query, entry)
    seen = set()
    # the hit arrays run by query id, each query's hits in rank order
    for q, h in zip(hits.query.tolist(), hits.hit.tolist()):
        entry = heads.get(h)
        if entry is None:
            raise DataError(f"hit {h} is not a known cluster head")
        key = (q, entry.cluster_id)
        if key in seen:
            continue
        seen.add(key)
        candidates.append((q, entry))
    if not candidates:
        return []

    # round 0 scores heads; round r scores augmentation member r-1 for
    # candidates still unresolved, so batching never changes semantics
    resolved = {}
    pending = list(range(len(candidates)))
    for rank in range(0, k_aug + 1):
        if not pending:
            break
        rows_q, rows_m, idxs = [], [], []
        for ci in pending:
            q, entry = candidates[ci]
            if rank == 0:
                target = entry.head
            else:
                if len(entry.augmentation) < rank:
                    continue
                target = entry.augmentation[rank - 1][0]
            rows_q.append(embeddings.row_of(q))
            rows_m.append(embeddings.row_of(target))
            idxs.append((ci, target))
        if not idxs:
            break
        scores = predict_rows(model, embeddings, np.array(rows_q), np.array(rows_m))
        still = []
        scored = {ci: (tgt, sc) for (ci, tgt), sc in zip(idxs, scores)}
        for ci in pending:
            if ci in scored:
                target, score = scored[ci]
                if score >= threshold:
                    resolved[ci] = (target, float(score))
                    continue
            if rank < k_aug and len(candidates[ci][1].augmentation) > rank:
                still.append(ci)
        pending = still

    best = {}
    for ci, (target, score) in resolved.items():
        q, entry = candidates[ci]
        match = VerifiedMatch(q, entry.cluster_id, target, score)
        cur = best.get(q)
        if cur is None or (match.score, -match.cluster_id) > (cur.score, -cur.cluster_id):
            best[q] = match
    return [best[q] for q in sorted(best)]


def emit_augmentation_labels(matches, heads: dict, model: MlpModel, embeddings: EmbeddingSet, threshold: float) -> list:
    """Positive (query, head, 1) labels for matches won by an augmentation member.

    These are exactly the adversarial pairs the classifier got wrong at the
    head: the pair scored below the threshold although the query belongs to
    the cluster. Matches via the head emit nothing.
    """
    _check_threshold(threshold)
    by_cluster = {e.cluster_id: e for e in heads.values()}
    out = []
    aug_matches = []
    for m in matches:
        entry = by_cluster.get(m.cluster_id)
        if entry is None:
            raise DataError(f"match names unknown cluster {m.cluster_id}")
        if m.matched_via != entry.head:
            aug_matches.append((m, entry))
    if not aug_matches:
        return out
    rows_q = embeddings.rows_of([m.query for m, _ in aug_matches])
    rows_h = embeddings.rows_of([e.head for _, e in aug_matches])
    head_scores = predict_rows(model, embeddings, rows_q, rows_h)
    for (m, entry), s in zip(aug_matches, head_scores):
        if s < threshold:
            out.append((m.query, entry.head, 1))
    return out


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise DataError(f"threshold must be in (0, 1), got {threshold}")
