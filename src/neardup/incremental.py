"""Incremental ingestion: new batches join existing clusters or form new ones.

A ClusterStore holds the current clustering as arrays: every stored image's
embedding, the cluster table (clustering.ClusterTable), the heads with their
frozen augmentation lists (selection.ClusterHeads), and an LSH index over
the heads only. Each incoming batch runs two searches. New-vs-old matches
batch images against stored heads through the head index; new-vs-new runs
the static pipeline inside the batch. Merge prefers old clusters: an image
with a head match joins its matched cluster, the rest of its batch cluster
follows the best-matched member, and only batch clusters with no matched
member at all enter the store as new clusters (heads re-picked as medoids in
one batched call, members rescored against them). Merge appends table rows.

On disk a store is a directory. Data files carry the generation number in
their name and are never rewritten; manifest.json names the current
generation and is replaced atomically, so a crash mid-save leaves the
previous generation readable.
"""

import json
import logging
import os
import time

import numpy as np

from .classifier import MlpModel, predict_rows
from .clustering import ClusterIndex, ClusterTable, choose_head, clusters_to_tsv, read_clusters_tsv
from .config import PipelineConfig
from .embeddings import EmbeddingSet, LshConfig
from .errors import DataError, StoreError
from .index import build_index, load_index, serialize_index
from .pipeline import resolve_lsh_config, static_clusters
from .search import batch_search
from .selection import ClusterHeads, HeadMatches, emit_augmentation_labels, select_candidates
from .util import atomic_write_bytes, atomic_write_json, atomic_write_text, find_sorted, first_repeat

log = logging.getLogger("neardup")

MANIFEST_NAME = "manifest.json"
STORE_VERSION = 1


class ClusterStore:
    """The persistent clustering state between batches.

    table is the ClusterTable, heads the ClusterHeads; clusters is a
    read-only map of cluster id -> NearDupeCluster view over the table.
    """

    def __init__(
        self,
        lsh_config: LshConfig,
        embeddings: EmbeddingSet,
        table: ClusterTable,
        heads: ClusterHeads,
        k_aug: int = 3,
        batch_id: int = 0,
        directory=None,
        head_index=None,
    ):
        self.lsh_config = lsh_config
        self.embeddings = embeddings
        self.table = table
        self.heads = heads
        self.k_aug = int(k_aug)
        self.batch_id = int(batch_id)
        self.directory = directory

        if not np.array_equal(table.cluster_ids, heads.cluster):
            raise StoreError("cluster table and head entries disagree on cluster ids")
        wrong = np.flatnonzero(table.heads != heads.head)
        if wrong.size:
            raise StoreError(f"cluster {heads.cluster[wrong[0]]}: head entry does not match cluster")
        twice = first_repeat(table.image)
        if twice:
            raise StoreError(f"image {table.image[twice[0]]} appears in more than one cluster")
        stored = np.isin(table.image, embeddings.ids)
        if not stored.all():
            raise StoreError(f"image {table.image[~stored][0]} is clustered but has no stored embedding")
        if table.image.size != len(embeddings):
            raise StoreError(f"{len(embeddings)} stored embeddings but {table.image.size} clustered images")
        self.clusters = ClusterIndex(table)
        if head_index is None:
            head_index = build_index(embeddings.subset(np.sort(heads.head)), lsh_config, head_only=True)
        self.head_index = head_index

    def __len__(self) -> int:
        return len(self.embeddings)

    @property
    def n_clusters(self) -> int:
        return len(self.table)

    @classmethod
    def initialize(
        cls,
        clusters,
        embeddings: EmbeddingSet,
        lsh_config: LshConfig,
        k_aug: int = 3,
        directory=None,
    ) -> "ClusterStore":
        """Create a store from a finished clustering (a ClusterTable or
        NearDupeCluster-like objects), keeping heads as given.

        Augmentation lists are fixed here: the top k_aug members of each
        cluster by (score desc, id asc).
        """
        table = ClusterTable.from_clusters(clusters)
        heads = ClusterHeads.from_table(table, k_aug)
        store = cls(lsh_config, embeddings, table, heads, k_aug=k_aug, directory=directory)
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
        atomic_write_text(os.path.join(directory, names["clusters"]), clusters_to_tsv(self.table))
        atomic_write_text(os.path.join(directory, names["heads"]), _heads_json(self.heads))
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
        try:
            table = read_clusters_tsv(os.path.join(directory, files["clusters"]))
            heads = _heads_from_json(_read_json(os.path.join(directory, files["heads"])))
        except (DataError, AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise StoreError(f"{directory}: malformed cluster table or heads file: {exc!r}") from exc
        k_aug, batch_id = manifest["k_aug"], manifest["batch_id"]
        return cls(head_index.config, embeddings, table, heads, k_aug, batch_id, directory, head_index)


def _heads_json(heads: ClusterHeads) -> str:
    """The heads file: compact JSON with sorted keys, as json.dumps(...,
    sort_keys=True, separators=(",", ":")) writes it, formatted from the
    arrays. Rewritten on every batch and read only by open."""
    aug = list(map("[{},{!r}]".format, heads.aug_image.tolist(), heads.aug_score.tolist()))
    bounds = heads.aug_offsets.tolist()
    entries = {
        str(cid): f'"{cid}":{{"augmentation":[{",".join(aug[lo:hi])}],"head":{head}}}'
        for cid, head, lo, hi in zip(heads.cluster.tolist(), heads.head.tolist(), bounds, bounds[1:])
    }
    return "{" + ",".join(entries[k] for k in sorted(entries)) + "}\n"


def _heads_from_json(payload) -> ClusterHeads:
    specs = list(payload.values())
    augs = [[(int(m), float(s)) for m, s in spec["augmentation"]] for spec in specs]
    flat = [a for aug in augs for a in aug]
    return ClusterHeads(
        list(map(int, payload)), [int(spec["head"]) for spec in specs], list(map(len, augs)),
        [m for m, _ in flat], [s for _, s in flat],
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
) -> HeadMatches:
    """Match one batch against stored cluster heads, at most one match per
    query. The head index must cover exactly the current heads; anything
    else means the store is corrupt.
    """
    if not np.array_equal(np.sort(store.head_index.dictionary.external), np.sort(store.heads.head)):
        raise StoreError("head index out of sync with cluster heads")
    if len(new_embeddings) == 0 or store.heads.cluster.size == 0:
        return HeadMatches()
    hits = batch_search(new_embeddings, store.head_index, k=k, min_overlap=min_overlap)
    if combined is None:
        combined = store.embeddings.concat(new_embeddings)
    return select_candidates(hits, store.heads, model, combined, threshold, k_aug=store.k_aug)


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
    nvo_matches: HeadMatches,
    nvn_clusters,
    model: MlpModel,
    combined: EmbeddingSet,
):
    """Fold one batch's matches and internal clusters into the clustering.

    nvn_clusters is the batch's ClusterTable (or NearDupeCluster-like
    objects). Returns (table, heads, assignments): the next cluster table and
    head arrays plus one (image_id, cluster_id, provenance) row per batch
    image. The store itself is left untouched.

    Provenance: "nvo" for a direct head match, "nvn_mapped" for an image
    pulled into an old cluster by a matched batch-mate, "nvn_new" for
    members of clusters entering the store. Joiners' stored scores are
    against the old cluster's head and may land below the match threshold.
    """
    nvn = ClusterTable.from_clusters(nvn_clusters)
    owner = np.repeat(np.arange(len(nvn)), nvn.sizes)
    at, matched = find_sorted(nvo_matches.query, nvn.image)
    # each batch cluster's best match: highest score, then smallest cluster id
    hit = np.flatnonzero(matched)
    hit = hit[np.lexsort((nvo_matches.cluster[at[hit]], -nvo_matches.score[at[hit]], owner[hit]))]
    hit = hit[np.unique(owner[hit], return_index=True)[1]]
    best = np.zeros(len(nvn), dtype=np.uint64)
    best[owner[hit]] = nvo_matches.cluster[at[hit]]
    joins = np.zeros(len(nvn), dtype=bool)
    joins[owner[hit]] = True

    parts = [store.table.columns]
    assignments = []
    join = np.flatnonzero(joins[owner])
    if join.size:
        image, direct = nvn.image[join], matched[join]
        target = best[owner[join]]
        target[direct] = nvo_matches.cluster[at[join][direct]]
        heads_at, _ = find_sorted(store.heads.cluster, target)
        rows_h = combined.rows_of(store.heads.head[heads_at])
        scores = predict_rows(model, combined, combined.rows_of(image), rows_h)
        # augmentation lists stay frozen: joins add table rows, never head entries
        parts.append((image, target, np.zeros(join.size, dtype=bool), scores))
        provenance = np.where(direct, "nvo", "nvn_mapped").tolist()
        assignments += zip(image.tolist(), target.tolist(), provenance)

    created = ClusterTable()
    if not joins.all():
        # entering clusters: members by id, the smallest id names the cluster
        enter = ~joins[owner]
        sizes = nvn.sizes[~joins]
        image = nvn.image[enter][np.lexsort((nvn.image[enter], owner[enter]))]
        group = np.repeat(np.arange(sizes.size), sizes)
        cid = image[np.cumsum(sizes) - sizes]
        clash = np.isin(cid, store.heads.cluster)
        if clash.any():
            raise StoreError(f"new cluster id {cid[clash][0]} collides with an existing cluster")
        medoids = choose_head(image, sizes, model, combined)
        is_head = image == medoids[group]
        others, their_head = image[~is_head], medoids[group[~is_head]]
        score = np.full(image.size, np.nan)
        if others.size:
            score[~is_head] = predict_rows(
                model, combined, combined.rows_of(others), combined.rows_of(their_head)
            )
        created = ClusterTable(image, cid[group], is_head, score)
        assignments += zip(created.image.tolist(), created.cluster.tolist(), ["nvn_new"] * image.size)
    parts.append(created.columns)
    table = ClusterTable(*map(np.concatenate, zip(*parts)))
    heads = ClusterHeads.from_table(created, store.k_aug)
    return table, ClusterHeads(*map(np.concatenate, zip(store.heads.columns, heads.columns))), assignments


def _log_stage(stage: str, t0: float, detail: str = "", *args) -> float:
    """Log one stage's seconds since t0 at -v; returns the time now."""
    now = time.perf_counter()
    log.info("%s %.3fs" + detail, stage, now - t0, *args)
    return now


def run_incremental(store_or_directory, new_embeddings: EmbeddingSet, model: MlpModel, config: PipelineConfig = None):
    """One batch end to end: open or create the store, match, merge, persist.

    Returns (store, assignments, labels). assignments holds one
    (image_id, cluster_id, provenance) row per input image; ids already in
    the store short-circuit with provenance "existing" and change nothing,
    so re-ingesting a batch is a no-op. labels are positive (query, head, 1)
    training pairs emitted when a match needed the augmentation list.

    The input store object is never mutated; a fresh store is returned (and
    saved when it has a directory). An empty batch is a no-op. With -v, each
    stage (open, nvo, nvn, merge, save) logs its seconds.
    """
    config = config if config is not None else PipelineConfig()
    t0 = time.perf_counter()
    if isinstance(store_or_directory, ClusterStore):
        store = store_or_directory
    else:
        directory = os.fspath(store_or_directory)
        if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
            store = ClusterStore.open(directory)
        else:
            lsh_config = resolve_lsh_config(config, new_embeddings)
            empty = (new_embeddings.subset([]), ClusterTable(), ClusterHeads())
            store = ClusterStore(lsh_config, *empty, config.augmentation.k_aug, 0, directory)
    t0 = _log_stage("open", t0, ": %d images in %d clusters", len(store), store.n_clusters)
    if len(new_embeddings) == 0:
        return store, [], []

    by_image = np.argsort(store.table.image)
    at, known = find_sorted(store.table.image[by_image], new_embeddings.ids)
    existing = store.table.cluster[by_image[at[known]]]
    assignments = list(zip(new_embeddings.ids[known].tolist(), existing.tolist(), ["existing"] * existing.size))
    if known.all():
        log.info("batch of %d: all ids already stored, nothing to do", len(new_embeddings))
        return store, sorted(assignments), []

    fresh = new_embeddings.subset(new_embeddings.ids[~known])
    combined = store.embeddings.concat(fresh)
    threshold = config.classifier.threshold
    matches = run_nvo(
        store, fresh, model, threshold, k=config.search.k, min_overlap=config.search.min_overlap, combined=combined
    )
    labels = emit_augmentation_labels(matches, store.heads, model, combined, threshold)
    t0 = _log_stage("nvo", t0, ": %d of %d new images match a head", len(matches), len(fresh))
    nvn = run_nvn(store, fresh, model, config)
    t0 = _log_stage("nvn", t0, ": %d batch clusters", len(nvn.clusters))
    table, heads, batch_assignments = merge(store, matches, nvn.clusters, model, combined)
    next_store = ClusterStore(
        store.lsh_config, combined, table, heads, store.k_aug, store.batch_id + 1, store.directory
    )
    t0 = _log_stage("merge", t0, ": store now %d clusters", next_store.n_clusters)
    if next_store.directory is not None:
        next_store.save()
        _log_stage("save", t0, ": generation %d", next_store.batch_id)
    return next_store, sorted(assignments + batch_assignments), labels


def assignments_to_tsv(assignments) -> str:
    return "".join(f"{i}\t{c}\t{p}\n" for i, c, p in assignments)
