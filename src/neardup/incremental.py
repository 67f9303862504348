"""Incremental ingestion: new batches join existing clusters or form new ones.

A ClusterStore holds the current clustering as one entry per stored image,
aligned with the embedding rows: its cluster id, its score against its head
and its role (member, head, or member on the cluster's frozen augmentation
list). The cluster table (clustering.ClusterTable), the heads with their
augmentation lists (selection.ClusterHeads) and an LSH index over the heads
only are derived from these on first use. Each incoming batch runs two
searches. New-vs-old matches batch images against stored heads through the
head index; new-vs-new runs the static pipeline inside the batch. Merge
prefers old clusters: an image with a head match joins its matched
cluster, the rest of its batch cluster follows the best-matched member,
and only batch clusters with no matched member at all enter the store as
new clusters (heads re-picked as medoids in one batched call, which also
gives each member's score against its head). Each pair is scored once: a
head match keeps its verified score, the medoid choice takes the scores of
the edges and cut pairs new-vs-new kept, and merge scores only the joiners
no earlier call paired with their head. Merge appends the batch's entries; a
joiner is a plain member, so augmentation lists stay frozen.

On disk a store is a directory of append-only segment files listed by
manifest.json, which also holds the LSH config, k_aug and the batch id. A
segment holds the entries and embeddings of the images first stored in it,
as raw little-endian columns under a CRC32; an image's entry never changes
once stored. A segment stores no value a row implies: no score on a head,
and no cluster id on a row whose own image id names its cluster (a bit of
its role byte says so); open rebuilds both full columns. No postings are
stored: the head index is a function of the heads' embeddings and the LSH
config. Stored rows follow segment order. A save writes one segment for
the images past the persisted prefix and then replaces the manifest; no
segment file is ever rewritten. While the newest segment holds at least
half as many images as the one before it, the two are compacted into a new
file, so a store of n batches has O(log n) segments. A segment file is
deleted once neither the manifest nor the one it replaced names it, so a
reader of the previous generation never loses its files. Every file is
fsynced before its rename and its directory after, so a crash at any point
leaves the last manifest and all it names readable. run_incremental on a
directory holds an flock on <store>/lock from open through save: a second
writer gets a StoreError, and the kernel drops the lock of a process that
dies.
"""

import contextlib
import fcntl
import functools
import json
import logging
import os
import struct
import zlib
from typing import NamedTuple

import numpy as np

from .classifier import MlpModel, predict_rows
from .clustering import ClusterIndex, ClusterTable, choose_head
from .config import INT_LIMIT, PipelineConfig
from .embeddings import EmbeddingSet, LshConfig
from .errors import FormatError, NearDupError, StoreError
from .index import PostingIndex, build_index
from .pipeline import resolve_lsh_config, static_clusters
from .search import batch_search
from .selection import ClusterHeads, HeadMatches, emit_augmentation_labels, select_candidates
from .util import TEMP_PREFIX, ByteReader, StageTimer, atomic_write_bytes, atomic_write_text
from .util import find_sorted, first_repeat, top_in_groups

log = logging.getLogger("neardup")

MANIFEST_NAME = "manifest.json"
LOCK_NAME = "lock"
STORE_VERSION = 2
SEGMENT_MAGIC = b"NDSG"
SEGMENT_VERSION = 4
# a stored image's role: a member, its cluster's head, or a member on its
# cluster's frozen augmentation list
MEMBER, HEAD, LISTED = 0, 1, 2
# a segment's role byte holds the role in its low two bits, and SELF_NAMED
# on an image whose own id names its cluster; its other bits are zero
ROLE_BITS, SELF_NAMED = 0b011, 0b100


class SegmentRef(NamedTuple):
    """A manifest entry: the batches a segment covers, its image count and
    the CRC32 its file ends with."""

    first_batch: int
    last_batch: int
    images: int
    crc32: int

    @property
    def name(self) -> str:
        return f"segment-{self.first_batch}-{self.last_batch}.ndsg"


class ClusterStore:
    """The persistent clustering state between batches.

    One entry per stored image, aligned with the rows of embeddings: cluster
    (its cluster id), score (against its head, NaN on a head) and role
    (MEMBER, HEAD, or LISTED for a member on its cluster's frozen
    augmentation list). table (the ClusterTable), heads (ClusterHeads, each
    list the LISTED members by score desc, id asc), clusters (a read-only
    map of cluster id -> NearDupeCluster view) and head_index are derived
    from them on first use. segments lists the segments of directory that
    hold the first stored images, in row order; save writes the rest.
    A new store holds no images and has no lsh_config (None) until its first
    non-empty batch picks the bits.
    """

    def __init__(
        self,
        lsh_config: LshConfig,
        embeddings: EmbeddingSet,
        cluster=(),
        score=(),
        role=(),
        k_aug: int = 3,
        batch_id: int = 0,
        directory=None,
        segments=(),
    ):
        self.lsh_config = lsh_config
        self.embeddings = embeddings
        self.cluster = np.asarray(cluster, dtype=np.uint64).reshape(-1)
        self.score = np.asarray(score, dtype=np.float64).reshape(-1)
        self.role = np.asarray(role, dtype=np.uint8).reshape(-1)
        self.k_aug = int(k_aug)
        self.batch_id = int(batch_id)
        self.directory = directory
        self.segments = tuple(segments)
        if not len(embeddings) == self.cluster.size == self.score.size == self.role.size:
            raise StoreError(f"{len(embeddings)} stored embeddings need as many cluster, score and role entries")
        if self.role.max(initial=0) > LISTED:
            raise StoreError(f"image {embeddings.ids[self.role > LISTED][0]}: role {self.role.max()} is not 0, 1 or 2")

    @functools.cached_property
    def table(self) -> ClusterTable:
        return ClusterTable(self.embeddings.ids, self.cluster, self.role == HEAD, self.score)

    @functools.cached_property
    def heads(self) -> ClusterHeads:
        return ClusterHeads.from_table(self.table, self.k_aug, listed=self.embeddings.ids[self.role == LISTED])

    @functools.cached_property
    def clusters(self) -> ClusterIndex:
        return ClusterIndex(self.table)

    @functools.cached_property
    def head_index(self) -> PostingIndex:
        """The LSH index over the heads, dense ids in row order."""
        heads = self.role == HEAD
        heads_only = EmbeddingSet(self.embeddings.d, self.embeddings.ids[heads], self.embeddings.packed[heads])
        return build_index(heads_only, self.lsh_config)

    def __len__(self) -> int:
        return len(self.embeddings)

    @property
    def n_clusters(self) -> int:
        return int(np.count_nonzero(self.role == HEAD))

    @classmethod
    def initialize(
        cls,
        table: ClusterTable,
        embeddings: EmbeddingSet,
        lsh_config: LshConfig,
        k_aug: int = 3,
        directory=None,
    ) -> "ClusterStore":
        """Create a store from the finished clustering table of exactly the
        images of embeddings, keeping heads as given.

        Augmentation lists are fixed here: the top k_aug members of each
        cluster by (score desc, id asc).
        """
        twice = first_repeat(table.image)
        if twice:
            raise StoreError(f"image {table.image[twice[0]]} appears in more than one cluster")
        stored = embeddings.contains(table.image)
        if not stored.all():
            raise StoreError(f"image {table.image[~stored][0]} is clustered but has no stored embedding")
        if table.image.size != len(embeddings):
            raise StoreError(f"{len(embeddings)} stored embeddings but {table.image.size} clustered images")
        by_row = np.argsort(embeddings.rows_of(table.image))
        aligned = (table.cluster[by_row], table.score[by_row], _roles(table, k_aug)[by_row])
        store = cls(lsh_config, embeddings, *aligned, k_aug=k_aug, directory=directory)
        if directory is not None:
            store.save()
        return store

    def save(self) -> None:
        """Append a segment of the images past the persisted prefix (if any),
        compact, swap the manifest, then delete unreferenced segments."""
        if self.directory is None:
            raise StoreError("store has no directory to save into")
        directory = os.fspath(self.directory)
        scored_head = (self.role == HEAD) & ~np.isnan(self.score)
        if scored_head.any():  # a segment stores no score for a head
            head = self.embeddings.ids[scored_head][0]
            raise StoreError(f"{directory}: head {head} has score {self.score[scored_head][0]}; a head has none")
        segments = list(self.segments)
        persisted = sum(ref.images for ref in segments)
        if persisted > len(self):
            raise StoreError(f"{directory}: segments hold {persisted} images, the store {len(self)}")
        os.makedirs(directory, exist_ok=True)
        if persisted < len(self):
            if segments and segments[-1].last_batch >= self.batch_id:
                raise StoreError(f"{directory}: batch {self.batch_id} is already stored")
            segments.append(SegmentRef(self.batch_id, self.batch_id, len(self) - persisted, 0))
            while len(segments) > 1 and 2 * segments[-1].images >= segments[-2].images:
                newer, older = segments.pop(), segments.pop()
                segments.append(SegmentRef(older.first_batch, newer.last_batch, older.images + newer.images, 0))
            start = len(self) - segments[-1].images
            columns = (self.embeddings.ids, self.cluster, self.score, self.role, self.embeddings.packed)
            blob = _encode_segment(self.embeddings.d, {n: c[start:] for (n, _), c in zip(_COLUMNS, columns)})
            segments[-1] = segments[-1]._replace(crc32=_stored_crc(blob))
            atomic_write_bytes(os.path.join(directory, segments[-1].name), blob)
        replaced = _named_segments(directory)
        manifest = {
            "version": STORE_VERSION,
            "batch_id": self.batch_id,
            "k_aug": self.k_aug,
            "lsh": {
                "d": self.lsh_config.d,
                "selected_bits": list(self.lsh_config.selected_bits),
                "term_bits": self.lsh_config.term_bits,
            },
            "segments": [ref._asdict() for ref in segments],
        }
        compact = json.dumps(manifest, separators=(",", ":"), sort_keys=True)
        atomic_write_text(os.path.join(directory, MANIFEST_NAME), compact)
        self.directory, self.segments = directory, tuple(segments)
        if replaced is not None:
            _collect_garbage(directory, replaced | {ref.name for ref in segments})

    @classmethod
    def open(cls, directory) -> "ClusterStore":
        """Load the generation the manifest names. Any missing, truncated,
        corrupt or inconsistent file is a StoreError."""
        directory = os.fspath(directory)
        manifest, config, refs = _read_manifest(directory)
        segments = [_read_segment(directory, ref, config) for ref in refs]
        ids, cluster, score, role, packed = (
            np.concatenate([np.zeros(0, dtype=dtype)] + [seg[name] for seg in segments]) for name, dtype in _COLUMNS
        )
        try:
            embeddings = EmbeddingSet(config.d, ids, packed.reshape(-1, config.d // 8))
            k_aug, batch_id = manifest["k_aug"], manifest["batch_id"]
            store = cls(config, embeddings, cluster, score, role, k_aug, batch_id, directory, refs)
            store.heads  # derive the table and heads now, so bad roles fail here and not mid-batch
            return store
        except StoreError:
            raise
        except NearDupError as exc:
            raise StoreError(f"{directory}: inconsistent segments: {exc}") from exc


# -- segment file -----------------------------------------------------------
#
# magic "NDSG" | version u16 | d u16 | images u64 | named u64 | scored u64
# then five columns, widest first so every column starts aligned:
#   ids      u64 per image
#   cluster  u64 per image whose cluster id is not its own id (named of them)
#   score    f64 per image that is not a head (scored of them)
#   role     u1 per image: MEMBER, HEAD or LISTED, | SELF_NAMED when the
#            image's own id is its cluster id
#   packed   d/8 bytes per image
# then a CRC32 (u32) of all bytes before it. All little-endian.

# the full columns of a store's rows, as segments are read into and written from
_COLUMNS = (("ids", "<u8"), ("cluster", "<u8"), ("score", "<f8"), ("role", "u1"), ("packed", "u1"))


def _encode_segment(d: int, columns: dict) -> bytes:
    """A segment file of full columns; a head's score is not written."""
    ids, cluster, score, role, packed = (np.ascontiguousarray(columns[name], dtype=dtype) for name, dtype in _COLUMNS)
    # the columns are written as given, so a test can write a segment whose
    # ids and cluster differ in length; a row past the shorter one is not
    # self-named
    n = min(ids.size, cluster.size)
    own = np.zeros(cluster.size, dtype=bool)
    own[:n] = cluster[:n] == ids[:n]
    scored = role != HEAD
    flags = role | np.where(own, SELF_NAMED, 0).astype(np.uint8)
    header = struct.pack("<HHQQQ", SEGMENT_VERSION, d, ids.size, np.count_nonzero(~own), np.count_nonzero(scored))
    body = b"".join([SEGMENT_MAGIC, header] + [a.tobytes() for a in (ids, cluster[~own], score[scored], flags, packed)])
    return body + struct.pack("<I", zlib.crc32(body))


def _stored_crc(blob: bytes) -> int:
    return struct.unpack_from("<I", blob, len(blob) - 4)[0]


def _decode_segment(blob: bytes, path) -> tuple:
    """(d, column name -> full column) of a segment file's bytes; any
    truncation, checksum mismatch, bad header or role byte, or sparse column
    the role column does not call for is a StoreError."""
    body = memoryview(blob)[:-4]
    if zlib.crc32(body).to_bytes(4, "little") != blob[-4:]:
        raise StoreError(f"{path}: segment checksum mismatch")
    try:
        r = ByteReader.open(path, SEGMENT_MAGIC, SEGMENT_VERSION, "segment", body)
        d, images, named, scored = r.unpack("<HQQQ")
        if d == 0 or d % 8:
            raise FormatError(f"{path}: invalid d={d}")
        counts = (images, named, scored, images, images * (d // 8))
        ids, cluster, score, flags, packed = (r.array(dtype, n) for (_, dtype), n in zip(_COLUMNS, counts))
        r.done()
    except FormatError as exc:
        raise StoreError(str(exc)) from exc
    reserved = (flags & ~np.uint8(ROLE_BITS | SELF_NAMED)) != 0
    if reserved.any():
        raise StoreError(f"{path}: image {ids[reserved][0]}: reserved bits set in role byte {flags[reserved][0]:#04x}")
    role = flags & ROLE_BITS
    if role.max(initial=0) > LISTED:
        raise StoreError(f"{path}: image {ids[role > LISTED][0]}: role 3 is not 0, 1 or 2")
    has_cluster, has_score = (flags & SELF_NAMED) == 0, role != HEAD
    if named != np.count_nonzero(has_cluster) or scored != np.count_nonzero(has_score):
        raise StoreError(
            f"{path}: {named} cluster ids and {scored} scores, where the role column calls for "
            f"{np.count_nonzero(has_cluster)} and {np.count_nonzero(has_score)}"
        )
    full_cluster, full_score = ids.copy(), np.full(images, np.nan)
    full_cluster[has_cluster] = cluster
    full_score[has_score] = score
    return d, {"ids": ids, "cluster": full_cluster, "score": full_score, "role": role, "packed": packed}


def _read_segment(directory, ref: SegmentRef, config: LshConfig) -> dict:
    """One segment's columns, checked against its manifest entry."""
    path = os.path.join(directory, ref.name)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise StoreError(f"{path}: cannot read segment: {exc}") from exc
    d, seg = _decode_segment(blob, path)
    if _stored_crc(blob) != ref.crc32 or seg["ids"].size != ref.images:
        raise StoreError(f"{path}: not the segment the manifest names")
    if d != config.d:
        raise StoreError(f"{path}: segment d={d}, store d={config.d}")
    return seg


def _read_manifest(directory) -> tuple:
    """(manifest, LshConfig, [SegmentRef]) of a store directory."""
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(path):
        raise StoreError(f"{directory}: not a cluster store (no {MANIFEST_NAME})")
    manifest = _read_json(path)
    if not isinstance(manifest, dict):
        raise StoreError(f"{path}: manifest must be a JSON object")
    version = manifest.get("version")
    if version == 1:
        raise StoreError(
            f"{directory}: store version 1 (whole-generation files) is not supported; "
            f"this release reads version {STORE_VERSION} segment stores only"
        )
    if version != STORE_VERSION:
        raise StoreError(f"{directory}: unsupported store version {version}")
    if not all(_is_count(manifest.get(k)) for k in ("k_aug", "batch_id")):
        raise StoreError(f"{path}: k_aug and batch_id must be integers in [0, 2^63)")
    lsh = manifest.get("lsh")
    if not (
        isinstance(lsh, dict)
        and _is_count(lsh.get("d"))
        and lsh["d"] < 2**16  # a segment header holds d as a u16
        and _is_count(lsh.get("term_bits"))
        and isinstance(lsh.get("selected_bits"), list)
        and all(map(_is_count, lsh["selected_bits"]))
    ):
        raise StoreError(f"{path}: 'lsh' must hold integer d, term_bits and selected_bits")
    try:
        config = LshConfig(lsh["d"], tuple(lsh["selected_bits"]), lsh["term_bits"])
    except NearDupError as exc:
        raise StoreError(f"{path}: bad LSH config: {exc}") from exc
    entries = manifest.get("segments")
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and set(e) == set(SegmentRef._fields) and all(map(_is_count, e.values()))
        for e in entries
    ):
        raise StoreError(f"{path}: 'segments' must list objects of {', '.join(SegmentRef._fields)}")
    refs = [SegmentRef(**entry) for entry in entries]
    bounds = [b for ref in refs for b in (ref.first_batch, ref.last_batch)] + [manifest["batch_id"]]
    if bounds != sorted(bounds) or any(a.first_batch <= b.last_batch for a, b in zip(refs[1:], refs)):
        raise StoreError(f"{path}: segments must cover increasing, disjoint batch ranges")
    return manifest, config, refs


def _named_segments(directory):
    """Names of the segments the current manifest lists, or None when there
    is no readable manifest."""
    try:
        return {ref.name for ref in _read_manifest(directory)[2]}
    except StoreError:
        return None


def _collect_garbage(directory, keep: set) -> None:
    """Delete segment and temp files not in keep. Only a writer holding the
    store lock may call this: any temp file is then left from a crash."""
    for name in os.listdir(directory):
        is_segment = name.startswith("segment-") and name.endswith(".ndsg")
        if (is_segment or name.startswith(TEMP_PREFIX)) and name not in keep:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(directory, name))


@contextlib.contextmanager
def _writer_lock(directory):
    """Hold an exclusive flock on <directory>/lock; StoreError if another
    writer holds it. No directory, no lock."""
    if directory is None:
        yield
        return
    os.makedirs(directory, exist_ok=True)
    fd = os.open(os.path.join(directory, LOCK_NAME), os.O_RDWR | os.O_CREAT, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise StoreError(f"{directory}: another writer holds the store lock") from None
        yield
    finally:
        os.close(fd)  # closing the descriptor releases the lock


def _read_json(path):
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read())
    except OSError as exc:
        raise StoreError(f"{path}: cannot read: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise StoreError(f"{path}: invalid JSON: {exc}") from exc


def _is_count(value) -> bool:
    """A JSON integer in [0, 2^63): it must fit NumPy's default int64."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < INT_LIMIT


def run_nvo(
    store: ClusterStore,
    new_embeddings: EmbeddingSet,
    model: MlpModel,
    config: PipelineConfig,
    combined: EmbeddingSet,
) -> HeadMatches:
    """Match one batch against stored cluster heads, at most one match per
    query, under config's search.k, search.min_overlap and classifier.threshold.
    combined is the store's embeddings followed by the batch's."""
    if len(new_embeddings) == 0 or store.heads.cluster.size == 0:
        return HeadMatches()
    hits = batch_search(new_embeddings, store.head_index, k=config.search.k, min_overlap=config.search.min_overlap)
    return select_candidates(hits, store.heads, model, combined, config.classifier.threshold, k_aug=store.k_aug)


def run_nvn(
    store: ClusterStore,
    new_embeddings: EmbeddingSet,
    model: MlpModel,
    config: PipelineConfig,
):
    """Cluster a batch internally: the static pipeline under the store's LSH config."""
    return static_clusters(new_embeddings, model, config, lsh_config=store.lsh_config)


def merge(
    store: ClusterStore,
    nvo_matches: HeadMatches,
    nvn: ClusterTable,
    model: MlpModel,
    combined: EmbeddingSet,
    scored=None,
):
    """Fold one batch's matches and internal clusters into the clustering.

    combined is the store's embeddings followed by the batch's, and nvn the
    batch's ClusterTable over exactly those batch images. scored, if given,
    is the (a, b, score) arrays of batch pairs already scored, such as
    StaticRunResult.scored_pairs() of the batch's own clustering;
    choose_head takes their scores instead of scoring them again. Returns
    (next_store, assignments): the store's entries plus the batch's at
    batch_id + 1, not yet saved, and one (image_id, cluster_id, provenance)
    row per batch image. The store itself is left untouched.

    Provenance: "nvo" for a direct head match, "nvn_mapped" for an image
    pulled into an old cluster by a matched batch-mate, "nvn_new" for
    members of clusters entering the store. Joiners' stored scores are
    against the old cluster's head and may land below the match threshold.
    A match won at the head keeps its score from nvo_matches, and an
    entering member keeps its score against the medoid from choose_head;
    only "nvn_mapped" joiners and matches won by an augmentation
    member are scored here. Joiners are plain members: augmentation lists
    stay frozen.
    """
    owner = np.repeat(np.arange(len(nvn)), nvn.sizes)
    at, matched = find_sorted(nvo_matches.query, nvn.image)
    # each batch cluster's best match: highest score, then smallest cluster id
    hit = np.flatnonzero(matched)
    hit = hit[top_in_groups(owner[hit], nvo_matches.score[at[hit]], nvo_matches.cluster[at[hit]], 1)]
    best = np.zeros(len(nvn), dtype=np.uint64)
    best[owner[hit]] = nvo_matches.cluster[at[hit]]
    joins = np.zeros(len(nvn), dtype=bool)
    joins[owner[hit]] = True

    parts = []  # the batch's (image, cluster, score, role) entries
    assignments = []
    join = np.flatnonzero(joins[owner])
    if join.size:
        image, direct = nvn.image[join], matched[join]
        target = best[owner[join]]
        target[direct] = nvo_matches.cluster[at[join[direct]]]
        head = store.heads.head[find_sorted(store.heads.cluster, target)[0]]
        # a match won at the head holds the pair's score already; a batch-mate,
        # or a match won by an augmentation member, is scored against the head
        via_head = direct.copy()
        via_head[direct] = nvo_matches.via[at[join[direct]]] == head[direct]
        scores = np.empty(join.size)
        scores[via_head] = nvo_matches.score[at[join[via_head]]]
        if not via_head.all():
            fresh = ~via_head
            scores[fresh] = predict_rows(model, combined, combined.rows_of(image[fresh]), combined.rows_of(head[fresh]))
        parts.append((image, target, scores, np.full(join.size, MEMBER, dtype=np.uint8)))
        provenance = np.where(direct, "nvo", "nvn_mapped").tolist()
        assignments += zip(image.tolist(), target.tolist(), provenance)

    created = ClusterTable()
    if not joins.all():
        created = choose_head(nvn.image[~joins[owner]], nvn.sizes[~joins], model, combined, scored)
        clash = np.isin(created.cluster_ids, store.heads.cluster)
        if clash.any():
            raise StoreError(f"new cluster id {created.cluster_ids[clash][0]} collides with an existing cluster")
        assignments += zip(created.image.tolist(), created.cluster.tolist(), ["nvn_new"] * created.image.size)
    parts.append((created.image, created.cluster, created.score, _roles(created, store.k_aug)))

    image, cluster, score, role = map(np.concatenate, zip(*parts))
    rows = combined.rows_of(image)
    by_row = np.argsort(rows)
    if not np.array_equal(rows[by_row], np.arange(len(store), len(combined))):
        raise StoreError("batch clusters must hold exactly the batch's new images")
    columns = ((store.cluster, cluster), (store.score, score), (store.role, role))
    cluster, score, role = (np.concatenate((old, new[by_row])) for old, new in columns)
    next_store = ClusterStore(
        store.lsh_config, combined, cluster, score, role,
        store.k_aug, store.batch_id + 1, store.directory, store.segments,
    )
    return next_store, assignments


def _roles(table: ClusterTable, k_aug: int) -> np.ndarray:
    """The role of each table row, listing the top k_aug members of each cluster."""
    role = table.head.astype(np.uint8)
    role[np.isin(table.image, ClusterHeads.from_table(table, k_aug).aug_image)] = LISTED
    return role


def run_incremental(store_or_directory, new_embeddings: EmbeddingSet, model: MlpModel, config: PipelineConfig):
    """One batch end to end: open or create the store, match, merge, persist.

    Returns (store, assignments, labels). assignments holds one
    (image_id, cluster_id, provenance) row per input image; ids already in
    the store short-circuit with provenance "existing" and change nothing,
    so re-ingesting a batch is a no-op. labels is an (n, 3) uint64 array of
    positive (query, head, 1) training pairs, emitted when a match needed
    the augmentation list.

    The input store object is never mutated; a fresh store is returned (and
    saved when it has a directory). An empty batch is a no-op. With -v, each
    stage (open, nvo, nvn, merge, save) logs its seconds. A store directory
    is locked against other writers from open through save.
    """
    if isinstance(store_or_directory, ClusterStore):
        directory = store_or_directory.directory
    else:
        directory = os.fspath(store_or_directory)
    with _writer_lock(directory):
        return _ingest(store_or_directory, directory, new_embeddings, model, config)


def _ingest(store_or_directory, directory, new_embeddings: EmbeddingSet, model: MlpModel, config: PipelineConfig):
    stage = StageTimer()
    if isinstance(store_or_directory, ClusterStore):
        store = store_or_directory
    elif os.path.exists(os.path.join(directory, MANIFEST_NAME)):
        store = ClusterStore.open(directory)
    else:
        store = ClusterStore(None, new_embeddings.subset([]), k_aug=config.augmentation.k_aug, directory=directory)
    if store.lsh_config is None and len(new_embeddings):
        lsh_config = resolve_lsh_config(config, new_embeddings)
        store = ClusterStore(lsh_config, store.embeddings, k_aug=store.k_aug, directory=directory)
    stage("open", "%d images in %d clusters", len(store), store.n_clusters)
    if len(new_embeddings) == 0:
        return store, [], np.zeros((0, 3), dtype=np.uint64)

    known = store.embeddings.contains(new_embeddings.ids)
    existing = store.cluster[store.embeddings.rows_of(new_embeddings.ids[known])]
    assignments = list(zip(new_embeddings.ids[known].tolist(), existing.tolist(), ["existing"] * existing.size))
    if known.all():
        log.info("batch of %d: all ids already stored, nothing to do", len(new_embeddings))
        return store, sorted(assignments), np.zeros((0, 3), dtype=np.uint64)

    fresh = new_embeddings.subset(new_embeddings.ids[~known])
    combined = store.embeddings.concat(fresh)
    matches = run_nvo(store, fresh, model, config, combined)
    labels = emit_augmentation_labels(matches, store.heads)
    stage("nvo", "%d of %d new images match a head", len(matches), len(fresh))
    nvn = run_nvn(store, fresh, model, config)
    stage("nvn", "%d batch clusters", len(nvn.clusters))
    next_store, batch_assignments = merge(store, matches, nvn.clusters, model, combined, nvn.scored_pairs())
    stage("merge", "store now %d clusters", next_store.n_clusters)
    if next_store.directory is not None:
        next_store.save()
        stage("save", "generation %d", next_store.batch_id)
    return next_store, sorted(assignments + batch_assignments), labels


def assignments_to_tsv(assignments) -> str:
    return "".join(f"{i}\t{c}\t{p}\n" for i, c, p in assignments)
