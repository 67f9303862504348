"""Golden digests: the cluster tables of a fixed seeded run, byte for byte.

A refactor or speed-up of search, selection, scoring or clustering must
leave these tables identical, and a change to the index codec must leave the
head-index file identical. A digest that moves means the change altered
clustering output or the file format: report that, do not re-record the
digest to pass.
Scores pass through BLAS, so another BLAS build may round differently.
"""

import hashlib

import numpy as np
import pytest

from neardup import (
    PipelineConfig,
    SyntheticCorpusSpec,
    generate_corpus,
    run_full,
    run_incremental,
    train_default_model,
)
from neardup.clustering import clusters_to_tsv
from neardup.index import load_index, serialize_index

RUN_FULL_SHA256 = "db8024457abf4a690b5a5f9cd801769d9e7a90206d71f4b5958bc47d5567182d"
INGEST_SHA256 = "2c81e8a04c8aeb48558458ed485009d23e8f5c6e2935259a69ddee92ae13ebda"
HEAD_INDEX_SHA256 = "24123629982fd336fe15b93cf7a32a3510a63ea3f1a7bf3a953e9b848b840267"
# every other file of the same store, byte for byte
STORE_FILE_SHA256 = {
    "clusters-3.tsv": "2c81e8a04c8aeb48558458ed485009d23e8f5c6e2935259a69ddee92ae13ebda",
    "heads-3.json": "3e36374d4d5d15ffce0f46a6da51a321b23fd3e89d9e5f0d6d39eaa81d6d0092",
    "embeddings-3.ndem": "86ab212dc10ad9859cff013a4b79fba4103f389ecf8e0e449ebb73967e077b74",
    "manifest.json": "897abb7f913ee1435a1373d8e01525a9b2b7418920afc1d892bd4f31e9ba77c1",
}
# the same run with top-K binding: (k, candidate pairs, edges, non-singleton clusters, sha256)
RUN_FULL_SMALL_K = (
    (2, 943, 644, 216, "c650bc625d72f40942a5fa425af8c2ca53b5408a17020def968e11b81da8ced1"),
    (1, 598, 349, 200, "4c9f0db3571687708a5b9d9bfee397c5fb837a73a2ad6654be554a4b1c90cb35"),
)


def spec(seed, n_base):
    return SyntheticCorpusSpec(seed=seed, n_base=n_base, d=256, flip_min=1, flip_max=8)


@pytest.fixture(scope="module")
def seeded():
    """A model trained with default settings on one corpus, and a second corpus."""
    config = PipelineConfig()
    train_emb, train_truth = generate_corpus(spec(11, 300))
    model = train_default_model(train_emb, train_truth, config)[0].model
    emb, _ = generate_corpus(spec(12, 500))
    return config, model, emb


def test_run_full_cluster_tsv_digest(seeded, tmp_path):
    config, model, emb = seeded
    path = tmp_path / "clusters.tsv"
    _, report = run_full(emb, model, config, path)
    assert (report["candidate_pairs"], report["edges"], report["non_singleton_clusters"]) == (1616, 1242, 215)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RUN_FULL_SHA256


@pytest.mark.parametrize("k, pairs, edges, clusters, digest", RUN_FULL_SMALL_K)
def test_run_full_digest_where_top_k_binds(seeded, tmp_path, k, pairs, edges, clusters, digest):
    _, model, emb = seeded
    config = PipelineConfig.from_dict({"search": {"k": k}})
    path = tmp_path / "clusters.tsv"
    _, report = run_full(emb, model, config, path)
    assert (report["candidate_pairs"], report["edges"], report["non_singleton_clusters"]) == (pairs, edges, clusters)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.fixture(scope="module")
def ingested(seeded, tmp_path_factory):
    """The store left by ingesting the second corpus in three batches."""
    config, model, emb = seeded
    directory = tmp_path_factory.mktemp("golden") / "store"
    perm = np.random.default_rng(12).permutation(len(emb))
    for rows in np.array_split(perm, 3):
        store, _, _ = run_incremental(directory, emb.subset(emb.ids[np.sort(rows)]), model, config)
    return store, directory


def test_incremental_store_table_digest(ingested):
    store, _ = ingested
    table = clusters_to_tsv(store.clusters.values()).encode()
    assert hashlib.sha256(table).hexdigest() == INGEST_SHA256


def test_head_index_file_digest(ingested):
    _, directory = ingested
    path = directory / "heads-3.ndix"
    blob = path.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == HEAD_INDEX_SHA256
    assert serialize_index(load_index(path)) == blob


@pytest.mark.parametrize("name", sorted(STORE_FILE_SHA256))
def test_store_file_digest(ingested, name):
    _, directory = ingested
    blob = (directory / name).read_bytes()
    assert hashlib.sha256(blob).hexdigest() == STORE_FILE_SHA256[name]
