"""Edge clustering: transitive closure, greedy threshold cut, head choice,
and the cluster table.

Transitive closure maps the ids to their ranks among the sorted distinct
ids and joins the edges' endpoints with merge_labels, the union routine
lazy selection also uses: each round hooks every root an edge still spans
to the smaller of its two roots, then pointer-jumps to a fixed point
(Shiloach and Vishkin, "An O(log n) Parallel Connectivity Algorithm",
J. Algorithms 1982). Every image then carries the rank of its component's
smallest id, so one stable sort by that label lists the components
ordered by minimum id, each in ascending id order.

Closure groups can be loose, chains in particular, so a greedy cut then
re-partitions each group: draw a random pivot, split off the pivot plus
everything scoring at or above the threshold against it as one finished
cluster with the pivot as head, and keep cutting the remainder until
nothing is left. Every emitted member carries its score against the head,
all >= threshold by construction. Pairs scored before the cut, such as the
static pipeline's kept edges, keep their scores; only the others are scored.
A round cuts all open groups at once, as flat ids plus group sizes, with
one generator call for the pivots and at most one scoring call.

Clusters travel as a ClusterTable of aligned arrays, from the cut through
the store to the cluster file; NearDupeCluster is a read-only view.
"""

from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from .classifier import MlpModel, predict_rows
from .embeddings import EmbeddingSet
from .errors import DataError
from .search import row_pair_keys
from .util import TEXT, U64, find_sorted, first_repeat, pairs_within, parse_column, read_columns, top_in_groups


class NearDupeCluster(NamedTuple):
    """One cluster: members are (image_id, score_vs_head) pairs by image id."""

    cluster_id: int
    head: int
    members: list = ()

    @property
    def image_ids(self) -> list:
        return [self.head] + [m for m, _ in self.members]

    @property
    def size(self) -> int:
        return 1 + len(self.members)


class ClusterTable:
    """Clusters as aligned read-only arrays, one row per image.

    image and cluster are uint64, head flags the one head row of each
    cluster and score is a member's score against its head (NaN on head
    rows); columns is the four as a tuple. Rows come in any order and are
    kept in cluster-file order: by cluster id, head first, then members by
    image id. starts, cluster_ids, heads and sizes hold one entry per
    cluster. len() counts clusters; iterating yields NearDupeCluster views.
    """

    def __init__(self, image=(), cluster=(), head=(), score=()):
        image, cluster = (np.asarray(a, dtype=np.uint64).reshape(-1) for a in (image, cluster))
        head, score = np.asarray(head, dtype=bool).reshape(-1), np.asarray(score, dtype=np.float64).reshape(-1)
        if not image.size == cluster.size == head.size == score.size:
            raise DataError("cluster table columns must be aligned")
        order = np.lexsort((image, ~head, cluster))
        self.columns = tuple(a[order] for a in (image, cluster, head, score))
        for a in self.columns:
            a.setflags(write=False)
        self.image, self.cluster, self.head, self.score = self.columns
        first = np.r_[True, self.cluster[1:] != self.cluster[:-1]][: image.size]
        if not np.array_equal(first, self.head):
            raise DataError(f"cluster {self.cluster[first != self.head][0]}: needs exactly one head row")
        self.starts = np.flatnonzero(first)
        self.cluster_ids, self.heads = self.cluster[self.starts], self.image[self.starts]
        self.sizes = np.diff(np.append(self.starts, image.size))

    def __len__(self) -> int:
        return self.starts.size

    def __iter__(self):
        return map(self.cluster_at, range(len(self)))

    def cluster_at(self, pos: int) -> NearDupeCluster:
        lo, hi = self.starts[pos], self.starts[pos] + self.sizes[pos]
        members = zip(self.image[lo + 1 : hi].tolist(), self.score[lo + 1 : hi].tolist())
        return NearDupeCluster(int(self.cluster[lo]), int(self.image[lo]), list(members))


class ClusterIndex(Mapping):
    """Read-only map of cluster id -> NearDupeCluster over a ClusterTable;
    values() is the table itself."""

    def __init__(self, table: ClusterTable):
        self.table = table

    def __getitem__(self, cluster_id) -> NearDupeCluster:
        if isinstance(cluster_id, (int, np.integer)) and 0 <= cluster_id < 2**64:
            pos, found = find_sorted(self.table.cluster_ids, [cluster_id])
            if found[0]:
                return self.table.cluster_at(int(pos[0]))
        raise KeyError(cluster_id)

    def __iter__(self):
        return iter(self.table.cluster_ids.tolist())

    def __len__(self) -> int:
        return len(self.table)

    def values(self) -> ClusterTable:
        return self.table


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
    dense = dense.reshape(-1, 2)
    label = np.arange(nodes.size)
    merge_labels(label, dense[:, 0], dense[:, 1])
    # nodes ascend, so each label is the index of its component's smallest id
    order = np.argsort(label, kind="stable")
    return np.split(nodes[order], np.flatnonzero(np.diff(label[order])) + 1)


def merge_labels(label: np.ndarray, a, b) -> None:
    """Join, in place, the components that the edges (a[i], b[i]) connect.

    label[i] is the smallest index of i's component, so label[label] ==
    label on entry and on return. Each round hooks the root of every edge
    whose endpoints still differ to the smaller of their two roots, then
    pointer-jumps to a fixed point; every round drops at least one root.
    transitive_closure and select_edges' lazy selection both join through
    this one routine.
    """
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    while True:
        root_a, root_b = label[a], label[b]
        split = root_a != root_b
        if not split.any():
            return
        a, b, root_a, root_b = a[split], b[split], root_a[split], root_b[split]
        np.minimum.at(label, root_a, root_b)
        np.minimum.at(label, root_b, root_a)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label[:] = up


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
) -> ClusterTable:
    """Cut closure groups into threshold-coherent clusters, pivot as head.

    Deterministic for a fixed seed: each round draws the pivots of its groups,
    in input order, from one seeded generator. scored, if given, is the
    aligned (a, b, score) id and score arrays of pairs already scored, such
    as the edges select_edges keeps; a (pivot, member) pair found there in
    either order takes that score, and only the others are scored. A fresh score of
    such a pair would equal the given one bit for bit (see classifier), so
    the reuse saves the call and changes no cluster.
    """
    check_threshold(threshold)
    known = _score_table(scored, embeddings)
    rng = np.random.default_rng(seed)
    groups = [np.asarray(g, dtype=np.uint64).reshape(-1) for g in groups]
    sizes = np.array([g.size for g in groups], dtype=np.int64)
    ids = np.concatenate(groups) if groups else np.zeros(0, dtype=np.uint64)
    ids = ids[np.lexsort((ids, np.repeat(np.arange(sizes.size), sizes)))]  # each group sorted
    sizes, parts = sizes[sizes > 0], []
    while sizes.size:
        # a one-member group draws no random bits: its pivot is its member
        pivot_at = np.cumsum(sizes) - sizes + rng.integers(sizes)
        pivots, rest = ids[pivot_at], np.delete(ids, pivot_at)
        group = np.repeat(np.arange(sizes.size), sizes - 1)
        # one lookup and at most one scoring call for every group of the round
        scores = _score_rows(known, model, embeddings, embeddings.rows_of(rest), embeddings.rows_of(pivots)[group])
        passed = scores >= threshold
        cluster = pivots.copy()  # the smallest id of pivot and passing members
        np.minimum.at(cluster, group[passed], rest[passed])
        parts.append((pivots, cluster, np.ones(pivots.size, dtype=bool), np.full(pivots.size, np.nan)))
        parts.append((rest[passed], cluster[group[passed]], np.zeros(int(passed.sum()), dtype=bool), scores[passed]))
        ids, sizes = rest[~passed], np.bincount(group[~passed], minlength=sizes.size)
        sizes = sizes[sizes > 0]
    return ClusterTable(*map(np.concatenate, zip(*parts)))


def check_threshold(threshold: float) -> None:
    """A DataError unless 0 < threshold < 1."""
    if not 0.0 < threshold < 1.0:
        raise DataError(f"threshold must be in (0, 1), got {threshold}")


def add_singletons(table: ClusterTable, ids) -> ClusterTable:
    """The table plus a singleton cluster for each of ids it leaves out, so
    that it partitions ids."""
    lone = np.setdiff1d(ids, table.image)
    lone = (lone, lone, np.ones(lone.size, dtype=bool), np.full(lone.size, np.nan))
    return ClusterTable(*map(np.concatenate, zip(table.columns, lone)))


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


def _score_rows(known, model: MlpModel, embeddings: EmbeddingSet, rows_a, rows_b) -> np.ndarray:
    """The scores of the row pairs (rows_a[i], rows_b[i]): a pair in known,
    the (keys, scores) of _score_table, takes its score there, and the rest
    are scored in one call."""
    keys, known_scores = known
    pos, found = find_sorted(keys, row_pair_keys(rows_a, rows_b))
    scores = np.empty(pos.size, dtype=np.float64)
    scores[found] = known_scores[pos[found]]
    if not found.all():
        missing = ~found
        scores[missing] = predict_rows(model, embeddings, rows_a[missing], rows_b[missing])
    return scores


def choose_head(ids, sizes, model: MlpModel, embeddings: EmbeddingSet, scored=None) -> ClusterTable:
    """The groups as a ClusterTable, each headed by its medoid by classifier
    score: the member with the largest score sum against the others of its
    group, ties to the smallest id. ids holds the groups one after another
    and sizes their lengths. The smallest member id names each cluster.
    scored, if given, is the aligned (a, b, score) arrays of pairs already
    scored, as in k_cut: a pair found there takes that score. The other
    pairs are scored in one call, and each sum adds in upper-triangle
    order; a member's score against its head is taken from these scores.
    """
    ids = np.asarray(ids, dtype=np.uint64).reshape(-1)
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
    if sizes.size == 0 or sizes.min() < 1 or sizes.sum() != ids.size:
        raise DataError("cannot choose a head from zero members")
    group = np.repeat(np.arange(sizes.size), sizes)
    ids = ids[np.lexsort((ids, group))]
    if np.any((ids[1:] == ids[:-1]) & (group[1:] == group[:-1])):
        raise DataError("duplicate ids in head selection")
    ia, ib = pairs_within(sizes)
    scores, sums = np.zeros(0), np.zeros(ids.size)
    if ia.size:
        rows = embeddings.rows_of(ids)
        scores = _score_rows(_score_table(scored, embeddings), model, embeddings, rows[ia], rows[ib])
        sums = np.bincount(np.concatenate((ia, ib)), np.concatenate((scores, scores)), ids.size)
    head_at = top_in_groups(group, sums, ids, 1)
    is_head = np.zeros(ids.size, dtype=bool)
    is_head[head_at] = True
    score = np.full(ids.size, np.nan)
    # the pairs that hold a head: the other position is a member
    a_head, b_head = ia == head_at[group[ia]], ib == head_at[group[ib]]
    score[ib[a_head]], score[ia[b_head]] = scores[a_head], scores[b_head]
    return ClusterTable(ids, ids[np.cumsum(sizes) - sizes][group], is_head, score)


# -- cluster file -----------------------------------------------------------
#
# headerless TSV, one row per image:
#   image_id <tab> cluster_id <tab> role(head|member) <tab> score_vs_head
# score is empty for heads, %.6f for members. Rows sorted by
# (cluster_id, role head first, image_id) so output is byte-stable.


def clusters_to_tsv(table: ClusterTable) -> str:
    """The cluster file of a ClusterTable."""
    tails = ["head\t" if h else "member\t%.6f" % s for h, s in zip(table.head.tolist(), table.score.tolist())]
    return "".join(map("{}\t{}\t{}\n".format, table.image.tolist(), table.cluster.tolist(), tails))


def read_clusters_tsv(path) -> ClusterTable:
    """Parse a cluster file, rows in any order, into a ClusterTable.

    Blank lines are skipped. The first malformed line is a DataError naming
    <path>:<line>: a field count other than 4, an id that is not a u64, a
    member score that is not a float, an unknown role, a second head for a
    cluster, or an image already on an earlier row. So are member rows of a
    cluster without a head row.
    """

    def check(columns, flag):
        image, cluster, role, text = columns
        is_head = np.array([r == "head" for r in role], dtype=bool)
        is_member = np.array([r == "member" for r in role], dtype=bool)
        members = np.flatnonzero(is_member)
        score = np.full(is_head.size, np.nan)
        parsed = parse_column(
            [text[r] for r in members.tolist()], float, np.float64, lambda rows, m: flag(members[rows], m)
        )
        score[members[: parsed.size]] = parsed
        flag(np.flatnonzero(~(is_head | is_member)), lambda r: f"unknown role {role[r]!r}")
        heads = np.flatnonzero(is_head)
        flag(heads[first_repeat(cluster[heads])[:1]], lambda r: f"duplicate head for cluster {cluster[r]}")
        twice = first_repeat(image)
        flag(twice[:1], lambda r: f"image {image[r]} already in cluster {cluster[twice[1]]}")
        return image, cluster, is_head, score

    image, cluster, is_head, score = read_columns(path, [U64, U64, TEXT, TEXT], check=check)
    orphans = cluster[~is_head & ~np.isin(cluster, cluster[is_head])]
    if orphans.size:
        raise DataError(f"{path}: member rows for clusters without heads: {np.unique(orphans).tolist()}")
    return ClusterTable(image, cluster, is_head, score)
