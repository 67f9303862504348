"""Edge clustering: transitive closure, greedy threshold cut, head choice.

Transitive closure runs iterative minimum-label propagation over the edge
set: each edge starts with its own id (the pair itself, compared
lexicographically after normalizing to (min, max)), every round each edge
adopts the smallest label incident to either endpoint, and the loop stops
on a round with zero updates. Components therefore end up labeled by their
minimum edge id, whose first element is the minimum member id; that value
is the cluster id (it fits 64 bits, is unique per component and stable for
identical input edge sets).

Closure groups can be loose, chains in particular, so a greedy cut then
re-partitions each group: draw a random pivot, split off the pivot plus
everything scoring at or above the threshold against it as one finished
cluster with the pivot as head, and keep cutting the remainder until
nothing is left. Every emitted member carries its score against the head,
all >= threshold by construction. Pairs scored before the cut, such as the
static pipeline's kept edges, keep their scores; only the others are scored.
"""

from dataclasses import dataclass, field

import numpy as np

from .classifier import MlpModel, predict_rows
from .embeddings import EmbeddingSet
from .errors import DataError
from .search import row_pair_keys


@dataclass
class NearDupeCluster:
    cluster_id: int
    head: int
    members: list = field(default_factory=list)  # (image_id, score_vs_head)

    def __post_init__(self):
        self.members = [(int(m), float(s)) for m, s in self.members]
        ids = [m for m, _ in self.members]
        if self.head in ids:
            raise DataError(f"cluster {self.cluster_id}: head listed among members")
        if len(ids) != len(set(ids)):
            raise DataError(f"cluster {self.cluster_id}: duplicate member")

    @property
    def image_ids(self) -> list:
        return [self.head] + [m for m, _ in self.members]

    @property
    def size(self) -> int:
        return 1 + len(self.members)


def transitive_closure(edges) -> list:
    """Connected components of an undirected edge list.

    edges is anything numpy reads as an (n, 2) array of image ids: a list of
    (a, b) tuples, or np.column_stack of two id arrays. Self-loops are
    ignored. Returns groups as sorted uint64 id arrays, ordered by their
    minimum member id.
    """
    pairs = _normalized_edges(edges)
    if pairs.shape[0] == 0:
        return []

    nodes, dense = np.unique(pairs, return_inverse=True)
    du = dense.reshape(-1, 2)[:, 0]
    dv = dense.reshape(-1, 2)[:, 1]

    # label = rank of the edge in (min, max) lexicographic order
    edge_order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    labels = np.empty(pairs.shape[0], dtype=np.int64)
    labels[edge_order] = np.arange(pairs.shape[0], dtype=np.int64)

    sentinel = np.int64(pairs.shape[0])
    while True:
        node_min = np.full(nodes.size, sentinel, dtype=np.int64)
        np.minimum.at(node_min, du, labels)
        np.minimum.at(node_min, dv, labels)
        new_labels = np.minimum(node_min[du], node_min[dv])
        updated = int((new_labels != labels).sum())
        labels = new_labels
        if updated == 0:
            break

    node_label = np.full(nodes.size, sentinel, dtype=np.int64)
    np.minimum.at(node_label, du, labels)
    np.minimum.at(node_label, dv, labels)
    order = np.argsort(node_label, kind="stable")
    sorted_labels = node_label[order]
    bounds = np.nonzero(np.diff(sorted_labels))[0] + 1
    groups = [np.sort(nodes[order[s:e]]) for s, e in _runs(bounds, nodes.size)]
    return sorted(groups, key=lambda g: int(g[0]))


def _runs(bounds: np.ndarray, size: int):
    starts = np.concatenate(([0], bounds))
    ends = np.append(bounds, size)
    return zip(starts, ends)


def _normalized_edges(edges) -> np.ndarray:
    pairs = np.asarray(edges, dtype=np.uint64)
    if pairs.size == 0:
        return np.zeros((0, 2), dtype=np.uint64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise DataError(f"edges must be (a, b) pairs, got shape {pairs.shape}")
    pairs = np.sort(pairs, axis=1)
    return pairs[pairs[:, 0] != pairs[:, 1]]


def k_cut(
    groups, model: MlpModel, embeddings: EmbeddingSet, threshold: float, seed: int = 0, scored=None
) -> list:
    """Cut closure groups into threshold-coherent clusters, pivot as head.

    Deterministic for a fixed seed: groups are processed in input order and
    pivot draws come from one seeded generator. Singleton groups bypass the
    cut and come back as singleton clusters. scored, if given, is the
    aligned (a, b, score) id and score arrays of pairs already scored, as
    select_edges returns them; a (pivot, member) pair found there in either
    order takes that score, and only the others are scored. A fresh score
    of such a pair could differ from the given one only by rounding in the
    last bits (see classifier), so the clusters are the same either way
    unless a score sits that close to the threshold.
    """
    if not 0.0 < threshold < 1.0:
        raise DataError(f"threshold must be in (0, 1), got {threshold}")
    known_keys, known_scores = _score_table(scored, embeddings)
    rng = np.random.default_rng(seed)
    out = []
    work = []
    for g in groups:
        ids = np.asarray(g, dtype=np.uint64)
        if ids.size == 0:
            continue
        if ids.size == 1:
            out.append(NearDupeCluster(int(ids[0]), int(ids[0]), []))
        else:
            work.append(np.sort(ids))

    while work:
        pivots = [int(w[rng.integers(w.size)]) for w in work]
        rest = [w[w != pivot] for w, pivot in zip(work, pivots)]
        sizes = np.array([r.size for r in rest], dtype=np.int64)
        # one lookup and at most one scoring call for every group of the round
        rows_q = embeddings.rows_of(np.concatenate(rest))
        rows_p = np.repeat(embeddings.rows_of(pivots), sizes)
        keys = row_pair_keys(rows_q, rows_p)
        pos = np.searchsorted(known_keys, keys)
        found = pos < known_keys.size
        found[found] = known_keys[pos[found]] == keys[found]
        scores = np.empty(keys.size, dtype=np.float64)
        scores[found] = known_scores[pos[found]]
        if not found.all():
            missing = ~found
            scores[missing] = predict_rows(model, embeddings, rows_q[missing], rows_p[missing])
        ends = np.cumsum(sizes)
        next_work = []
        for start, end, others, pivot in zip((ends - sizes).tolist(), ends.tolist(), rest, pivots):
            s = scores[start:end]
            passed = s >= threshold
            members = [(int(m), float(sc)) for m, sc in zip(others[passed], s[passed])]
            cluster_ids = [pivot] + [m for m, _ in members]
            out.append(NearDupeCluster(min(cluster_ids), pivot, members))
            residual = others[~passed]
            if residual.size == 1:
                out.append(NearDupeCluster(int(residual[0]), int(residual[0]), []))
            elif residual.size > 1:
                next_work.append(residual)
        work = next_work
    return sorted(out, key=lambda c: c.cluster_id)


def _score_table(scored, embeddings: EmbeddingSet):
    """The sorted unordered row-pair keys of the (a, b, score) arrays and
    their scores; both empty for None."""
    if scored is None:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.float64)
    a, b, score = (np.asarray(x).reshape(-1) for x in scored)
    if not a.size == b.size == score.size:
        raise DataError(f"scored arrays differ in length: {a.size}, {b.size}, {score.size}")
    keys = row_pair_keys(embeddings.rows_of(a), embeddings.rows_of(b))
    order = np.argsort(keys, kind="stable")
    return keys[order], score.astype(np.float64)[order]


def choose_head(member_ids, model: MlpModel, embeddings: EmbeddingSet) -> int:
    """Medoid by classifier score: the member with the largest score sum
    against all others, ties to the smallest id."""
    ids = sorted(int(m) for m in member_ids)
    if not ids:
        raise DataError("cannot choose a head from zero members")
    if len(set(ids)) != len(ids):
        raise DataError("duplicate ids in head selection")
    if len(ids) == 1:
        return ids[0]
    n = len(ids)
    ia, ib = np.triu_indices(n, k=1)
    rows = embeddings.rows_of(ids)
    scores = predict_rows(model, embeddings, rows[ia], rows[ib])
    sums = np.zeros(n)
    np.add.at(sums, ia, scores)
    np.add.at(sums, ib, scores)
    # ids are sorted ascending, argmax takes the first of equal sums
    return ids[int(np.argmax(sums))]


# -- cluster file -----------------------------------------------------------
#
# headerless TSV, one row per image:
#   image_id <tab> cluster_id <tab> role(head|member) <tab> score_vs_head
# score is empty for heads, %.6f for members. Rows sorted by
# (cluster_id, role head first, image_id) so output is byte-stable.


def clusters_to_tsv(clusters) -> str:
    lines = []
    for c in sorted(clusters, key=lambda c: c.cluster_id):
        lines.append(f"{c.head}\t{c.cluster_id}\thead\t")
        for m, s in sorted(c.members):
            lines.append(f"{m}\t{c.cluster_id}\tmember\t{s:.6f}")
    return "".join(line + "\n" for line in lines)


def read_clusters_tsv(path) -> list:
    heads = {}
    members = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataError(f"{path}:{ln}: expected 4 tab-separated fields")
            try:
                image_id, cluster_id, role = int(parts[0]), int(parts[1]), parts[2]
                score = float(parts[3]) if role == "member" else None
            except ValueError as exc:
                raise DataError(f"{path}:{ln}: {exc}") from None
            if role == "head":
                if cluster_id in heads:
                    raise DataError(f"{path}:{ln}: duplicate head for cluster {cluster_id}")
                heads[cluster_id] = image_id
            elif role == "member":
                members.setdefault(cluster_id, []).append((image_id, score))
            else:
                raise DataError(f"{path}:{ln}: unknown role {role!r}")
    missing = set(members) - set(heads)
    if missing:
        raise DataError(f"{path}: member rows for clusters without heads: {sorted(missing)}")
    return [
        NearDupeCluster(cid, heads[cid], members.get(cid, []))
        for cid in sorted(heads)
    ]
