"""Seeded inputs, set-up and timed passes for the three benchmark workloads.

Every input derives from the workload seed: the same seed writes the same
files. Set-up writes everything a pass needs into one directory (trained
model, corpus with ground truth, batch files, and the prebuilt store for
``ingest_daily``); a pass reads that directory and calls only the public
API: ``run_full``, ``run_incremental`` and ``ClusterStore``. Why each
workload exists is recorded in README.md next to this file.
"""

import hashlib
import os
import shutil
import time
from collections import Counter

import numpy as np

from neardup import (
    ClusterStore,
    EmbeddingSet,
    PipelineConfig,
    SyntheticCorpusSpec,
    generate_corpus,
    load_corpus,
    load_model,
    read_clusters_tsv,
    run_full,
    run_incremental,
    save_corpus,
    save_model,
    static_clusters,
    train_default_model,
)
from neardup.clustering import clusters_to_tsv

WORKLOADS = ("static", "ingest_stream", "ingest_daily")

# Corpus sizes per scale. "bench" is what BENCHMARK.json runs: sized so that
# 70 runs across the three workloads, set-up included, take under an hour on
# 2 cores. "smoke" is a seconds-long run for the smoke test. The batch count
# is fixed, so every seed splits its corpus into as many batches.
SCALES = {
    "smoke": {
        "train_n_base": 300,
        "static": {"n_base": 300},
        "ingest_stream": {"n_base": 300, "batches": 3},
        "ingest_daily": {"n_base": 400, "batches": 2},
    },
    "bench": {
        "train_n_base": 1000,
        "static": {"n_base": 12000},
        "ingest_stream": {"n_base": 1200, "batches": 6},
        "ingest_daily": {"n_base": 1500, "batches": 4},
    },
}

HELD_OUT = 0.05  # share of the ingest_daily corpus that arrives in batches


def corpus_spec(seed: int, n_base: int) -> SyntheticCorpusSpec:
    return SyntheticCorpusSpec(seed=seed, n_base=n_base, d=256, flip_min=1, flip_max=8)


def _timed(timings: dict, key: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0
    return out


def setup(workload: str, seed: int, scale: str, directory: str) -> dict:
    """Write one workload's inputs into directory; returns per-step seconds.

    The verifier trains with PipelineConfig() defaults on its own corpus
    (seed + 1), so the model is never scored on the images it learned from.
    """
    sizes = SCALES[scale]
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    timings = {}
    config = PipelineConfig()

    train_emb, train_truth = _timed(
        timings, "generate", generate_corpus, corpus_spec(seed + 1, sizes["train_n_base"])
    )
    result, _ = _timed(timings, "train", train_default_model, train_emb, train_truth, config)
    save_model(result.model, os.path.join(directory, "model.ndml"))

    emb, truth = _timed(
        timings, "generate", generate_corpus, corpus_spec(seed, sizes[workload]["n_base"])
    )
    save_corpus(emb, truth, os.path.join(directory, "corpus"))
    if workload == "static":
        return timings

    perm = np.random.default_rng(seed).permutation(len(emb))
    if workload == "ingest_daily":
        n_held = max(1, round(HELD_OUT * len(emb)))
        held, kept = perm[:n_held], np.sort(perm[n_held:])
        base = emb.subset(emb.ids[kept])
        model = load_model(os.path.join(directory, "model.ndml"))
        t0 = time.perf_counter()
        prebuilt = static_clusters(base, model, config)
        ClusterStore.initialize(
            prebuilt.clusters,
            base,
            prebuilt.lsh_config,
            k_aug=config.augmentation.k_aug,
            directory=os.path.join(directory, "store"),
        )
        timings["prebuild"] = time.perf_counter() - t0
        perm = held
    os.makedirs(os.path.join(directory, "batches"))
    for b, rows in enumerate(np.array_split(perm, sizes[workload]["batches"])):
        path = os.path.join(directory, "batches", f"{b:04d}.ndem")
        emb.subset(emb.ids[np.sort(rows)]).save(path)
    return timings


def tree_digest(directory: str) -> str:
    """sha256 over relative paths and contents of every file below directory."""
    h = hashlib.sha256()
    for path in sorted(_files(directory)):
        h.update(os.path.relpath(path, directory).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _files(directory: str):
    for base, _, names in os.walk(directory):
        for name in names:
            yield os.path.join(base, name)


def _snapshot(directory: str) -> dict:
    """path -> (inode, mtime_ns, size): a file whose key changes was written."""
    out = {}
    for path in _files(directory):
        st = os.stat(path)
        out[path] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


def bytes_written(before: dict, after: dict) -> int:
    return sum(key[2] for path, key in after.items() if before.get(path) != key)


class Inputs:
    """What a pass reads from set-up's directory, loaded before any timing."""

    def __init__(self, workload: str, directory: str):
        self.workload = workload
        self.model = load_model(os.path.join(directory, "model.ndml"))
        self.corpus_path = os.path.join(directory, "corpus", "embeddings.ndem")
        self.embeddings, self.truth = load_corpus(os.path.join(directory, "corpus"))
        self.batch_paths = []
        batch_dir = os.path.join(directory, "batches")
        if os.path.isdir(batch_dir):
            self.batch_paths = [os.path.join(batch_dir, n) for n in sorted(os.listdir(batch_dir))]
        self.batches = [EmbeddingSet.load(p) for p in self.batch_paths]
        self.prebuilt = os.path.join(directory, "store")

    @property
    def images_per_pass(self) -> int:
        if self.workload == "static":
            return len(self.embeddings)
        return sum(len(b) for b in self.batches)

    @property
    def taken_in(self) -> set:
        """Ids of the images one pass clusters or ingests."""
        if self.workload == "static":
            return {int(i) for i in self.embeddings.ids}
        return {int(i) for b in self.batches for i in b.ids}

    @property
    def input_bytes(self) -> int:
        """.ndem bytes of the images one pass clusters or ingests."""
        if self.workload == "static":
            return os.path.getsize(self.corpus_path)
        return sum(os.path.getsize(p) for p in self.batch_paths)


class PassResult:
    """One pass: per-operation wall times and what the pass left behind."""

    def __init__(self):
        self.op_seconds = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.checks = {}
        self.digest = None
        self.written = 0
        self.output_bytes = 0
        self.output_files = 0
        self.provenance = {"nvo": 0, "nvn_mapped": 0, "nvn_new": 0, "existing": 0}
        self.aug_labels = 0
        self.assignment = None

    @property
    def seconds(self) -> float:
        return float(sum(self.op_seconds))


def run_pass(inputs: Inputs, out_dir: str, wrap_op=None) -> PassResult:
    """Run one workload pass into out_dir, which is emptied first.

    wrap_op, if given, wraps the timed public call (the tracer's root span).
    Only the public call itself is timed; directory scans for write counts
    happen between calls.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    if inputs.workload == "static":
        return _static_pass(inputs, _fresh(inputs.embeddings), out_dir, wrap_op)
    return _ingest_pass(inputs, [_fresh(b) for b in inputs.batches], out_dir, wrap_op)


def _fresh(embeddings: EmbeddingSet) -> EmbeddingSet:
    """The same arrays in a new EmbeddingSet, without the id -> row map and
    unpacked bits an earlier pass cached on the old one, as after a load."""
    return EmbeddingSet(embeddings.d, embeddings.ids, embeddings.packed)


def _static_pass(inputs: Inputs, corpus: EmbeddingSet, out_dir: str, wrap_op) -> PassResult:
    res = PassResult()
    os.makedirs(out_dir)
    path = os.path.join(out_dir, "clusters.tsv")
    op = wrap_op("run_full", run_full) if wrap_op else run_full
    res.attempted = 1
    t0 = time.perf_counter()
    try:
        result, _ = op(corpus, inputs.model, PipelineConfig(), path)
    except Exception as exc:  # a failed run is counted, not fatal to the benchmark
        res.failed = 1
        res.errors.append(f"run_full: {exc!r}")
        return res
    res.op_seconds.append(time.perf_counter() - t0)
    res.written = res.output_bytes = os.path.getsize(path)
    res.output_files = 1
    with open(path, "rb") as fh:
        res.digest = hashlib.sha256(fh.read()).hexdigest()
    res.assignment = result.assignment()
    res.checks["static_partition"] = _is_partition(path, inputs.embeddings.ids)
    return res


def _is_partition(path: str, ids: np.ndarray) -> bool:
    """Every input id exactly once; every cluster id is its minimum member."""
    seen = []
    for c in read_clusters_tsv(path):
        members = c.image_ids
        if c.cluster_id != min(members):
            return False
        seen.extend(members)
    return len(seen) == ids.size and sorted(seen) == sorted(int(i) for i in ids)


def _ingest_pass(inputs: Inputs, batches: list, store_dir: str, wrap_op) -> PassResult:
    res = PassResult()
    if inputs.workload == "ingest_daily":
        shutil.copytree(inputs.prebuilt, store_dir)
    else:
        os.makedirs(store_dir)
    op = wrap_op("run_incremental", run_incremental) if wrap_op else run_incremental
    config = PipelineConfig()
    store = None
    one_row_each = True
    for batch in batches:
        before = _snapshot(store_dir)
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            store, rows, labels = op(store_dir, batch, inputs.model, config)
        except Exception as exc:  # a failed batch is counted, not fatal to the benchmark
            res.failed += 1
            res.errors.append(f"run_incremental: {exc!r}")
            return res
        res.op_seconds.append(time.perf_counter() - t0)
        res.written += bytes_written(before, _snapshot(store_dir))
        one_row_each &= sorted(r[0] for r in rows) == sorted(int(i) for i in batch.ids)
        for _, _, provenance in rows:
            res.provenance[provenance] = res.provenance.get(provenance, 0) + 1
        res.aug_labels += len(labels)
    res.checks["one_row_per_image"] = one_row_each
    res.checks["no_existing_rows"] = res.provenance["existing"] == 0

    table = clusters_to_tsv(store.clusters.values()).encode()
    res.digest = hashlib.sha256(table).hexdigest()
    res.assignment = {i: c.cluster_id for c in store.clusters.values() for i in c.image_ids}
    files = list(_files(store_dir))
    res.output_files = len(files)
    res.output_bytes = sum(os.path.getsize(p) for p in files)
    return res


def check_store(inputs: Inputs, store_dir: str, digest: str) -> dict:
    """The store reopens to the same table; re-ingesting the last batch is a no-op."""
    reopened = ClusterStore.open(store_dir)
    table = clusters_to_tsv(reopened.clusters.values()).encode()
    last = inputs.batches[-1]
    _, rows, _ = run_incremental(reopened, last, inputs.model, PipelineConfig())
    return {
        "reopen_same_table": hashlib.sha256(table).hexdigest() == digest,
        "reingest_only_existing": len(rows) == len(last)
        and all(p == "existing" for _, _, p in rows),
    }


def quality(inputs: Inputs, assignment: dict):
    """Pairwise precision and recall against ground truth, over the
    co-clustered pairs with at least one image the pass took in.

    For ``ingest_daily`` that leaves out the pairs among prebuilt images,
    which static_clusters formed during set-up; for the other workloads
    every pair counts.
    """
    truth = inputs.truth.assignment()
    taken_in = inputs.taken_in
    predicted = _pairs_touching(assignment, taken_in)
    actual = _pairs_touching({i: truth[i] for i in assignment}, taken_in)
    both = _pairs_touching({i: (c, truth[i]) for i, c in assignment.items()}, taken_in)
    precision = both / predicted if predicted else 1.0
    recall = both / actual if actual else 1.0
    return precision, recall


def _pairs_touching(labels: dict, ids: set) -> int:
    """Pairs of images sharing a label, at least one of them in ids."""
    size, outside = Counter(), Counter()
    for i, label in labels.items():
        size[label] += 1
        outside[label] += i not in ids
    return sum(n * (n - 1) // 2 - outside[k] * (outside[k] - 1) // 2 for k, n in size.items())
