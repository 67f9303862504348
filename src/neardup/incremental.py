"""Incremental ingestion: new batches join existing clusters or form new ones.

A ClusterStore holds the current clustering: every stored image's embedding,
one head entry per cluster with its frozen augmentation list, and an LSH
index over the heads only. Each incoming batch runs two searches. New-vs-old
matches batch images against stored heads through the head index; new-vs-new
runs the static pipeline inside the batch. Merge prefers old clusters: an
image with a head match joins its matched cluster, the rest of its batch
cluster follows the best-matched member, and only batch clusters with no
matched member at all enter the store as new clusters (head re-picked as the
medoid, members rescored against it).

On disk a store is a directory. Data files carry the generation number in
their name and are never rewritten; manifest.json names the current
generation and is replaced atomically, so a crash mid-save leaves the
previous generation readable.
"""

import json
import logging
import os

import numpy as np

from .classifier import MlpModel, predict_rows
from .clustering import NearDupeCluster, choose_head, clusters_to_tsv, read_clusters_tsv
from .config import PipelineConfig
from .embeddings import EmbeddingSet, LshConfig
from .errors import DataError, StoreError
from .index import build_index, load_index, serialize_index
from .pipeline import resolve_lsh_config, static_clusters
from .search import batch_search
from .selection import ClusterHeadEntry, emit_augmentation_labels, select_candidates
from .util import atomic_write_bytes, atomic_write_json, atomic_write_text

log = logging.getLogger("neardup")

MANIFEST_NAME = "manifest.json"
STORE_VERSION = 1


def _head_entry(cluster: NearDupeCluster, k_aug: int) -> ClusterHeadEntry:
    aug = sorted(cluster.members, key=lambda ms: (-ms[1], ms[0]))[:k_aug]
    return ClusterHeadEntry(cluster.cluster_id, cluster.head, tuple(aug))


def _empty_embeddings(d: int) -> EmbeddingSet:
    return EmbeddingSet(d, np.zeros(0, dtype=np.uint64), np.zeros((0, d // 8), dtype=np.uint8))


class ClusterStore:
    """The persistent clustering state between batches."""

    def __init__(
        self,
        lsh_config: LshConfig,
        embeddings: EmbeddingSet,
        clusters: dict,
        heads: dict,
        k_aug: int = 3,
        batch_id: int = 0,
        directory=None,
        head_index=None,
    ):
        self.lsh_config = lsh_config
        self.embeddings = embeddings
        self.clusters = dict(clusters)
        self.heads = dict(heads)
        self.k_aug = int(k_aug)
        self.batch_id = int(batch_id)
        self.directory = directory

        if set(self.clusters) != set(self.heads):
            raise StoreError("cluster table and head entries disagree on cluster ids")
        self.image_to_cluster = {}
        total = 0
        for cid, cluster in self.clusters.items():
            entry = self.heads[cid]
            if cluster.cluster_id != cid or entry.cluster_id != cid or entry.head != cluster.head:
                raise StoreError(f"cluster {cid}: head entry does not match cluster")
            for image_id in cluster.image_ids:
                if image_id in self.image_to_cluster:
                    raise StoreError(f"image {image_id} appears in more than one cluster")
                if image_id not in self.embeddings:
                    raise StoreError(f"image {image_id} is clustered but has no stored embedding")
                self.image_to_cluster[image_id] = cid
                total += 1
        if total != len(self.embeddings):
            raise StoreError(
                f"{len(self.embeddings)} stored embeddings but {total} clustered images"
            )
        self.head_index = head_index if head_index is not None else self._build_head_index()

    def __len__(self) -> int:
        return len(self.embeddings)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def head_entries_by_image(self) -> dict:
        return {e.head: e for e in self.heads.values()}

    def _build_head_index(self):
        head_ids = sorted(e.head for e in self.heads.values())
        if head_ids:
            subset = self.embeddings.subset(head_ids)
        else:
            subset = _empty_embeddings(self.lsh_config.d)
        return build_index(subset, self.lsh_config, head_only=True)

    @classmethod
    def initialize(
        cls,
        clusters,
        embeddings: EmbeddingSet,
        lsh_config: LshConfig,
        k_aug: int = 3,
        directory=None,
    ) -> "ClusterStore":
        """Create a store from a finished clustering, keeping heads as given.

        Augmentation lists are fixed here: the top k_aug members of each
        cluster by (score desc, id asc).
        """
        clusters = list(clusters)
        heads = {c.cluster_id: _head_entry(c, k_aug) for c in clusters}
        store = cls(
            lsh_config,
            embeddings,
            {c.cluster_id: c for c in clusters},
            heads,
            k_aug=k_aug,
            batch_id=0,
            directory=directory,
        )
        if directory is not None:
            store.save()
        return store

    def save(self, directory=None) -> None:
        """Write one generation of data files, then swap the manifest."""
        directory = directory if directory is not None else self.directory
        if directory is None:
            raise StoreError("store has no directory to save into")
        os.makedirs(directory, exist_ok=True)
        tag = self.batch_id
        names = {
            "clusters": f"clusters-{tag}.tsv",
            "heads": f"heads-{tag}.json",
            "head_index": f"heads-{tag}.ndix",
            "embeddings": f"embeddings-{tag}.ndem",
        }
        atomic_write_text(
            os.path.join(directory, names["clusters"]),
            clusters_to_tsv(self.clusters.values()),
        )
        heads_payload = {
            str(cid): {
                "head": entry.head,
                "augmentation": [[m, s] for m, s in entry.augmentation],
            }
            for cid, entry in sorted(self.heads.items())
        }
        # compact: rewritten on every batch, read only by open; the indented
        # form goes through json's pure-Python encoder
        atomic_write_text(
            os.path.join(directory, names["heads"]),
            json.dumps(heads_payload, sort_keys=True, separators=(",", ":")) + "\n",
        )
        atomic_write_bytes(
            os.path.join(directory, names["head_index"]), serialize_index(self.head_index)
        )
        self.embeddings.save(os.path.join(directory, names["embeddings"]))
        manifest = {
            "version": STORE_VERSION,
            "batch_id": self.batch_id,
            "k_aug": self.k_aug,
            "files": names,
        }
        atomic_write_json(os.path.join(directory, MANIFEST_NAME), manifest)
        self.directory = directory

    @classmethod
    def open(cls, directory) -> "ClusterStore":
        """Load the generation the manifest names. A malformed manifest, heads
        file or cluster table is a StoreError; a malformed embedding or index
        file is a FormatError."""
        path = os.path.join(directory, MANIFEST_NAME)
        if not os.path.exists(path):
            raise StoreError(f"{directory}: not a cluster store (no {MANIFEST_NAME})")
        manifest = _read_json(path)
        if not isinstance(manifest, dict):
            raise StoreError(f"{path}: manifest must be a JSON object")
        if manifest.get("version") != STORE_VERSION:
            raise StoreError(f"{directory}: unsupported store version {manifest.get('version')}")
        files = manifest.get("files")
        if not isinstance(files, dict) or not all(
            isinstance(files.get(k), str) for k in ("embeddings", "head_index", "clusters", "heads")
        ):
            raise StoreError(f"{path}: 'files' must name embeddings, head_index, clusters and heads")
        if not all(_is_count(manifest.get(k)) for k in ("k_aug", "batch_id")):
            raise StoreError(f"{path}: k_aug and batch_id must be non-negative integers")
        embeddings = EmbeddingSet.load(os.path.join(directory, files["embeddings"]))
        head_index = load_index(os.path.join(directory, files["head_index"]))
        if not head_index.head_only:
            raise StoreError(f"{directory}: stored index is not marked head-only")
        clusters_path = os.path.join(directory, files["clusters"])
        heads_path = os.path.join(directory, files["heads"])
        try:
            clusters = {c.cluster_id: c for c in read_clusters_tsv(clusters_path)}
            heads = {
                int(cid): ClusterHeadEntry(
                    int(cid),
                    int(spec["head"]),
                    tuple((int(m), float(s)) for m, s in spec["augmentation"]),
                )
                for cid, spec in _read_json(heads_path).items()
            }
        except (DataError, AttributeError, KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"{directory}: malformed cluster table or heads file: {exc!r}") from exc
        return cls(
            head_index.config,
            embeddings,
            clusters,
            heads,
            k_aug=manifest["k_aug"],
            batch_id=manifest["batch_id"],
            directory=directory,
            head_index=head_index,
        )


def _read_json(path):
    with open(path, "rb") as fh:
        try:
            return json.loads(fh.read())
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise StoreError(f"{path}: invalid JSON: {exc}") from exc


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def run_nvo(
    store: ClusterStore,
    new_embeddings: EmbeddingSet,
    model: MlpModel,
    threshold: float,
    k: int = 20,
    min_overlap: int = 2,
    combined: EmbeddingSet = None,
):
    """Match one batch against stored cluster heads.

    Returns VerifiedMatch list, at most one per query. The head index must
    cover exactly the current heads; anything else means the store is
    corrupt.
    """
    head_by_image = store.head_entries_by_image()
    head_ids = np.sort(np.fromiter(head_by_image, dtype=np.uint64, count=len(head_by_image)))
    if not np.array_equal(np.sort(store.head_index.dictionary.external), head_ids):
        raise StoreError("head index out of sync with cluster heads")
    if len(new_embeddings) == 0 or not head_by_image:
        return []
    hits = batch_search(new_embeddings, store.head_index, k=k, min_overlap=min_overlap)
    if combined is None:
        combined = store.embeddings.concat(new_embeddings)
    return select_candidates(hits, head_by_image, model, combined, threshold, k_aug=store.k_aug)


def run_nvn(
    store: ClusterStore,
    new_embeddings: EmbeddingSet,
    model: MlpModel,
    config: PipelineConfig = None,
):
    """Cluster a batch internally: the static pipeline under the store's LSH config."""
    config = config if config is not None else PipelineConfig()
    return static_clusters(new_embeddings, model, config, lsh_config=store.lsh_config)


def merge(
    store: ClusterStore,
    nvo_matches,
    nvn_clusters,
    model: MlpModel,
    combined: EmbeddingSet,
):
    """Fold one batch's matches and internal clusters into the clustering.

    Returns (clusters, heads, assignments): updated cluster and head-entry
    maps plus one (image_id, cluster_id, provenance) row per batch image.
    The store itself is left untouched; callers build the next store from
    the returned maps.

    Provenance: "nvo" for a direct head match, "nvn_mapped" for an image
    pulled into an old cluster by a matched batch-mate, "nvn_new" for
    members of clusters entering the store. Joiners' stored scores are
    against the old cluster's head and may land below the match threshold.
    """
    by_query = {m.query: m for m in nvo_matches}
    clusters = dict(store.clusters)
    heads = dict(store.heads)
    assignments = []

    joins = []  # (image_id, old cluster id, provenance)
    entering = []
    for cluster in sorted(nvn_clusters, key=lambda c: c.cluster_id):
        matched = [m for m in (by_query.get(i) for i in cluster.image_ids) if m is not None]
        if not matched:
            entering.append(cluster)
            continue
        best = max(matched, key=lambda m: (m.score, -m.cluster_id))
        for image_id in cluster.image_ids:
            m = by_query.get(image_id)
            if m is not None:
                joins.append((image_id, m.cluster_id, "nvo"))
            else:
                joins.append((image_id, best.cluster_id, "nvn_mapped"))

    if joins:
        rows_q = combined.rows_of([j[0] for j in joins])
        rows_h = combined.rows_of([heads[j[1]].head for j in joins])
        head_scores = predict_rows(model, combined, rows_q, rows_h)
        gained = {}
        for (image_id, cid, provenance), score in zip(joins, head_scores):
            gained.setdefault(cid, []).append((image_id, float(score)))
            assignments.append((image_id, cid, provenance))
        for cid, extra in gained.items():
            old = clusters[cid]
            clusters[cid] = NearDupeCluster(cid, old.head, list(old.members) + extra)
        # augmentation lists stay frozen: heads[cid] is not rebuilt

    creations = []  # (cluster_id, head, others)
    pair_q, pair_h = [], []
    for cluster in entering:
        ids = sorted(cluster.image_ids)
        cid = ids[0]
        if len(ids) == 1:
            creations.append((cid, ids[0], []))
            continue
        head = choose_head(ids, model, combined)
        others = [i for i in ids if i != head]
        creations.append((cid, head, others))
        pair_q.extend(others)
        pair_h.extend([head] * len(others))
    member_scores = (
        predict_rows(model, combined, combined.rows_of(pair_q), combined.rows_of(pair_h))
        if pair_q
        else np.zeros(0)
    )
    offset = 0
    for cid, head, others in creations:
        members = [
            (image_id, float(s))
            for image_id, s in zip(others, member_scores[offset : offset + len(others)])
        ]
        offset += len(others)
        if cid in clusters:
            raise StoreError(f"new cluster id {cid} collides with an existing cluster")
        created = NearDupeCluster(cid, head, members)
        clusters[cid] = created
        heads[cid] = _head_entry(created, store.k_aug)
        for image_id in created.image_ids:
            assignments.append((image_id, cid, "nvn_new"))

    return clusters, heads, assignments


def run_incremental(store_or_directory, new_embeddings: EmbeddingSet, model: MlpModel, config: PipelineConfig = None):
    """One batch end to end: open or create the store, match, merge, persist.

    Returns (store, assignments, labels). assignments holds one
    (image_id, cluster_id, provenance) row per input image; ids already in
    the store short-circuit with provenance "existing" and change nothing,
    so re-ingesting a batch is a no-op. labels are positive (query, head, 1)
    training pairs emitted when a match needed the augmentation list.

    The input store object is never mutated; a fresh store is returned (and
    saved when it has a directory). An empty batch is a no-op.
    """
    config = config if config is not None else PipelineConfig()
    if isinstance(store_or_directory, ClusterStore):
        store = store_or_directory
    else:
        directory = os.fspath(store_or_directory)
        if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
            store = ClusterStore.open(directory)
        else:
            lsh_config = resolve_lsh_config(config, new_embeddings)
            store = ClusterStore(
                lsh_config,
                _empty_embeddings(lsh_config.d),
                {},
                {},
                k_aug=config.augmentation.k_aug,
                batch_id=0,
                directory=directory,
            )
    if len(new_embeddings) == 0:
        return store, [], []

    assignments = []
    fresh_ids = []
    for image_id in new_embeddings.ids:
        image_id = int(image_id)
        known = store.image_to_cluster.get(image_id)
        if known is None:
            fresh_ids.append(image_id)
        else:
            assignments.append((image_id, known, "existing"))
    if not fresh_ids:
        log.info("batch of %d: all ids already stored, nothing to do", len(new_embeddings))
        return store, sorted(assignments), []

    fresh = new_embeddings.subset(fresh_ids)
    combined = store.embeddings.concat(fresh)
    matches = run_nvo(
        store,
        fresh,
        model,
        config.classifier.threshold,
        k=config.search.k,
        min_overlap=config.search.min_overlap,
        combined=combined,
    )
    labels = emit_augmentation_labels(
        matches, store.head_entries_by_image(), model, combined, config.classifier.threshold
    )
    nvn = run_nvn(store, fresh, model, config)
    log.info(
        "batch of %d: %d head matches, %d batch clusters",
        len(fresh), len(matches), len(nvn.clusters),
    )

    clusters, heads, batch_assignments = merge(store, matches, nvn.clusters, model, combined)
    next_store = ClusterStore(
        store.lsh_config,
        combined,
        clusters,
        heads,
        k_aug=store.k_aug,
        batch_id=store.batch_id + 1,
        directory=store.directory,
    )
    if next_store.directory is not None:
        next_store.save()
    return next_store, sorted(assignments + batch_assignments), labels


def assignments_to_tsv(assignments) -> str:
    return "".join(f"{i}\t{c}\t{p}\n" for i, c, p in assignments)
