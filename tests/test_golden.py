"""Golden digests: the cluster tables of a fixed seeded run, byte for byte.

A refactor or speed-up of search, selection, scoring or clustering must
leave these tables identical, a change to the index codec must leave the
head-index file identical, and a change to the store must leave what it
holds identical. A digest that moves means the change altered
clustering output or the file format: report that, do not re-record the
digest to pass.
Scores pass through BLAS, so another BLAS build may round differently.

A score does not depend on the call that computes it: predict_rows pads
every chunk to a multiple of SCORE_PAD_ROWS rows. The store-file pins of
heads-3.json, manifest.json and segment-1-3.ndsg moved once, when that pad
came in, and only for one stored score: image 106, listed in cluster 105,
was stored as 0.9280116389099419, as computed in a call of a few rows; it
scores 0.9280116389099421 in any call of 20 rows or more, and so in every
call now. No cluster table, head index or embedding pin moved with it.
Reusing the match and medoid scores in merge, rather than scoring those
pairs again, moved no byte.

The pins of manifest.json, segment-1-2.ndsg and segment-1-3.ndsg moved
once more when segments went to version 4, which stores no score on a
head and no cluster id on a row whose own id names its cluster:
manifest.json e9424903… -> f7470709…, segment-1-2.ndsg 78af370e… ->
c08657e1… (41,744 -> 34,272 bytes) and segment-1-3.ndsg 2d83d9a2… ->
6ae6e584… (62,606 -> 53,086 bytes). The version-3 files of this run,
decoded by the version-3 reader and written again by the version-4 writer,
give the new digests byte for byte, and the manifest differs only in the
segments' CRC32s. No cluster table, head index or embedding pin moved.

HEAD_INDEX_SHA256 moved once, 24123629… -> e45e61c6…, when the index file
went to version 2: the head-only byte left the header and the term, count
and byte-length columns moved ahead of one payload. The same postings
written by the version-1 writer and laid out again as columns give the new
digest byte for byte; the 11,881-byte payload did not change.

The model pins and the ingest pins moved once when train began to end at
the model file's float32 precision and the .ndml file, now version 2,
lost its trailing threshold: MODEL_FILE_SHA256 62d0057c… -> 4c00cc32…
(the version and the threshold go; the f32 weights are the same bytes),
and MODEL_VALIDATION's threshold 0.8235048195230601 -> 0.8235048191676093,
since validation now scores the rounded model (pr_auc and roc_auc held).
The ingest took the in-process float64 model before, which scored every
pair apart from its reloaded file by up to 2.6e-9, and printed row
"315 307 member" as 0.966919 where the file's model prints 0.966918; so
INGEST_SHA256 and the clusters-3.tsv pin 2c81e8a0… -> 79f1cdfc…,
heads-3.json c6f32d5a… -> cc7cd4da…, manifest.json f7470709… ->
a7dd1a91…, segment-1-2.ndsg c08657e1… -> 0016f6a9… and segment-1-3.ndsg
6ae6e584… -> 7f2c215d…. The parent code, given the fixture model saved
and reloaded, gives these new ingest and store digests byte for byte, and
with it RUN_FULL_SHA256, both RUN_FULL_SMALL_K rows, EVALUATE_REPORT,
HEAD_INDEX_SHA256 and the embeddings-3.ndem pin held.

The edge count of test_run_full_cluster_tsv_digest moved once, 1242 -> 836,
when selection stopped scoring pairs whose images earlier edges already
join: the count is of the edges the closure needed, not of every passing
pair. The components, and so every digest, did not move. The top-K runs
fit in one scoring window and kept their counts.
"""

import hashlib

import numpy as np
import pytest

from neardup import (
    ClusterStore,
    PipelineConfig,
    SyntheticCorpusSpec,
    evaluate_pipeline,
    generate_corpus,
    run_full,
    run_incremental,
    save_model,
    train_default_model,
)
from neardup import pipeline, search
from neardup.clustering import clusters_to_tsv
from neardup.index import build_index, load_index, serialize_index

RUN_FULL_SHA256 = "db8024457abf4a690b5a5f9cd801769d9e7a90206d71f4b5958bc47d5567182d"
INGEST_SHA256 = "79f1cdfcbf3d4581afdcc07a64a67cfb60dc2bd9d57ffb6e86caf5295f3f8cce"
# the head index over the stored heads in id order, as the index file codec writes it
HEAD_INDEX_SHA256 = "e45e61c61e9a04438132ff0e8785b7eaec5d417a902174103cfede84dd81e9a7"
# what the store holds, byte for byte: its files (manifest.json and the
# segments), and, under the names of the files an earlier whole-generation
# store wrote, the cluster file, the heads oracle and the embedding file of
# the reopened store
STORE_FILE_SHA256 = {
    "clusters-3.tsv": "79f1cdfcbf3d4581afdcc07a64a67cfb60dc2bd9d57ffb6e86caf5295f3f8cce",
    "heads-3.json": "cc7cd4dacab5f5946d2704bfa17e4c2c109de474c3905e9c31fb6ba257bb0520",
    "embeddings-3.ndem": "86ab212dc10ad9859cff013a4b79fba4103f389ecf8e0e449ebb73967e077b74",
    "manifest.json": "a7dd1a9113d512204c8949cb3411ddb8b5be7d009b2a5202d1a51724cf8b229a",
    "segment-1-2.ndsg": "0016f6a962179d278cdbbf49cf3a96890af779e488c3e41f45053505d10028d9",
    "segment-1-3.ndsg": "7f2c215dadec7a61f608adea8c58b3dde10d8234f1320bdc9edcfccba2ef69af",
}
# the same run with top-K binding: (k, candidate pairs, edges, non-singleton clusters, sha256)
RUN_FULL_SMALL_K = (
    (2, 943, 644, 216, "c650bc625d72f40942a5fa425af8c2ca53b5408a17020def968e11b81da8ced1"),
    (1, 598, 349, 200, "4c9f0db3571687708a5b9d9bfee397c5fb837a73a2ad6654be554a4b1c90cb35"),
)

# the seeded fixture's trained model: its model file and its validation dict
MODEL_FILE_SHA256 = "4c00cc32660c07b626b5581ee095260981acf1dff3781f1df8f8ae8599eaf493"
MODEL_VALIDATION = {"size": 200, "threshold": 0.8235048191676093, "pr_auc": 0.9999999999999999, "roc_auc": 1.0}


# evaluate_pipeline's label metrics for the second corpus against its truth
EVALUATE_REPORT = {
    "pairwise_precision": 1.0,
    "pairwise_recall": 0.744430693069307,
    "rand_index": 0.999314241689124,
    "purity": 1.0,
    "recall_at_distance": {"distance": 8, "value": 1.0},
    "cluster_size_histogram": {
        "1": 418, "2": 106, "3": 56, "4": 26, "5": 13, "6": 2, "7": 5, "8": 1, "9": 2, "10": 1, "14": 1, "17": 2,
    },
}


def spec(seed, n_base):
    return SyntheticCorpusSpec(seed=seed, n_base=n_base, d=256, flip_min=1, flip_max=8)


@pytest.fixture(scope="module")
def seeded():
    """A model trained with default settings on one corpus, a second corpus,
    and the model's validation dict."""
    config = PipelineConfig()
    train_emb, train_truth = generate_corpus(spec(11, 300))
    trained = train_default_model(train_emb, train_truth, config)[0]
    emb, _ = generate_corpus(spec(12, 500))
    return config, trained.model, emb, trained.validation


def test_trained_model_digest(seeded, tmp_path):
    _, model, _, validation = seeded
    path = tmp_path / "model.ndml"
    save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MODEL_FILE_SHA256
    assert validation == MODEL_VALIDATION


def test_run_full_cluster_tsv_digest(seeded, tmp_path):
    config, model, emb, _ = seeded
    path = tmp_path / "clusters.tsv"
    _, report = run_full(emb, model, config, path)
    assert (report["candidate_pairs"], report["edges"], report["non_singleton_clusters"]) == (1616, 836, 215)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RUN_FULL_SHA256


@pytest.mark.parametrize("k, pairs, edges, clusters, digest", RUN_FULL_SMALL_K)
def test_run_full_digest_where_top_k_binds(seeded, tmp_path, k, pairs, edges, clusters, digest):
    _, model, emb, _ = seeded
    config = PipelineConfig.from_dict({"search": {"k": k}})
    path = tmp_path / "clusters.tsv"
    _, report = run_full(emb, model, config, path)
    assert (report["candidate_pairs"], report["edges"], report["non_singleton_clusters"]) == (pairs, edges, clusters)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_evaluate_pipeline_report(seeded, monkeypatch):
    config, model, emb, _ = seeded
    _, truth = generate_corpus(spec(12, 500))
    calls = []
    for module, name in ((pipeline, "build_index"), (search, "_join")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    report = evaluate_pipeline(emb, truth, config, model=model)
    assert {key: report[key] for key in EVALUATE_REPORT} == EVALUATE_REPORT
    # the run and recall@distance read one index and one join
    assert calls == ["build_index", "_join"]


@pytest.fixture(scope="module")
def ingested(seeded, tmp_path_factory):
    """The store left by ingesting the second corpus in three batches."""
    config, model, emb, _ = seeded
    directory = tmp_path_factory.mktemp("golden") / "store"
    perm = np.random.default_rng(12).permutation(len(emb))
    for rows in np.array_split(perm, 3):
        store, _, _ = run_incremental(directory, emb.subset(emb.ids[np.sort(rows)]), model, config)
    return store, directory


def heads_json(heads) -> str:
    """The heads file of the earlier store: compact JSON with sorted keys,
    cluster id -> {"augmentation": [[member, score], ...], "head": id}."""
    aug = list(map("[{},{!r}]".format, heads.aug_image.tolist(), heads.aug_score.tolist()))
    bounds = heads.aug_offsets.tolist()
    entries = {
        str(cid): f'"{cid}":{{"augmentation":[{",".join(aug[lo:hi])}],"head":{head}}}'
        for cid, head, lo, hi in zip(heads.cluster.tolist(), heads.head.tolist(), bounds, bounds[1:])
    }
    return "{" + ",".join(entries[k] for k in sorted(entries)) + "}\n"


def test_incremental_store_table_digest(ingested):
    store, _ = ingested
    table = clusters_to_tsv(store.clusters.values()).encode()
    assert hashlib.sha256(table).hexdigest() == INGEST_SHA256


def test_head_index_file_digest(ingested, tmp_path):
    store, directory = ingested
    reopened = ClusterStore.open(directory)
    oracle = build_index(reopened.embeddings.subset(np.sort(reopened.heads.head)), reopened.lsh_config)
    blob = serialize_index(oracle)
    assert hashlib.sha256(blob).hexdigest() == HEAD_INDEX_SHA256
    (tmp_path / "heads.ndix").write_bytes(blob)
    assert serialize_index(load_index(tmp_path / "heads.ndix")) == blob
    # the derived head index, in memory and reopened, holds the same postings
    assert serialize_index(reopened.head_index) == serialize_index(store.head_index)
    assert posting_pairs(store.head_index) == posting_pairs(oracle)


def posting_pairs(index) -> set:
    """(term, external id) of every posting."""
    terms = np.repeat(index.terms, np.diff(index.offsets)).tolist()
    return set(zip(terms, index.dictionary[index.ids].tolist()))


@pytest.mark.parametrize("name", sorted(STORE_FILE_SHA256))
def test_store_file_digest(ingested, tmp_path, name):
    _, directory = ingested
    reopened = ClusterStore.open(directory)
    if name.startswith("clusters-"):
        blob = clusters_to_tsv(reopened.table).encode()
    elif name.startswith("heads-"):
        blob = heads_json(reopened.heads).encode()
    elif name.startswith("embeddings-"):
        reopened.embeddings.save(tmp_path / name)
        blob = (tmp_path / name).read_bytes()
    else:
        blob = (directory / name).read_bytes()
    assert hashlib.sha256(blob).hexdigest() == STORE_FILE_SHA256[name]
