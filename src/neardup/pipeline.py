"""Static end-to-end run: index, search, select, closure, cut.

Clusters every image of one embedding set against itself. Images that never
reach a passing edge come back as singleton clusters, so the output is a
partition. Deterministic for fixed config + seed + input: same clusters,
byte-identical cluster file.
"""

from dataclasses import dataclass, field

import numpy as np

from .classifier import MlpModel, train
from .classifier import predict_rows  # noqa: F401  unused; perfbench/test_smoke.py checks this import site
from .clustering import ClusterTable, add_singletons, clusters_to_tsv, k_cut, transitive_closure
from .config import PipelineConfig
from .corpus import GroundTruth, generate_labels
from .embeddings import EmbeddingSet, LshConfig, select_bits
from .errors import DataError
from .index import build_index
from .metrics import pairwise_precision_recall, purity, rand_index
from .search import RECALL_K, recall_at_distance, self_pairs, top_pairs
from .selection import select_edges
from .util import StageTimer, atomic_write_text, find_sorted


@dataclass
class StaticRunResult:
    """clusters, the LSH config used, and edges: the (a, b, score) id and
    score arrays of the edges selection kept."""

    clusters: ClusterTable
    lsh_config: LshConfig
    edges: tuple = field(default_factory=lambda: (np.zeros(0, dtype=np.uint64),) * 2 + (np.zeros(0),))
    candidate_pairs: int = 0
    pairs_scored: int = 0
    timings: dict = field(default_factory=dict)

    @property
    def edge_count(self) -> int:
        return int(self.edges[0].size)

    def assignment(self) -> dict:
        return dict(zip(self.clusters.image.tolist(), self.clusters.cluster.tolist()))

    def scored_pairs(self) -> tuple:
        """(a, b, score) of every pair the run scored and kept: the kept
        edges, then each cluster member against its head (the cut's pivot)."""
        table = self.clusters
        member = ~table.head
        cut = (table.image[member], np.repeat(table.heads, table.sizes)[member], table.score[member])
        return tuple(map(np.concatenate, zip(self.edges, cut)))


def resolve_lsh_config(config: PipelineConfig, embeddings: EmbeddingSet) -> LshConfig:
    """Materialize the LshConfig, picking bits by variance when unset.

    The selection sample is the first lsh.select_sample stored rows, so the
    choice is deterministic for a given embedding set.
    """
    lsh = config.lsh
    if embeddings.d != lsh.d:
        raise DataError(f"embeddings have d={embeddings.d}, config expects {lsh.d}")
    if lsh.selected_bits is not None:
        bits = [int(b) for b in lsh.selected_bits]
    else:
        sample = np.unpackbits(embeddings.packed[: lsh.select_sample], axis=1)
        bits = select_bits(sample, lsh.d, lsh.m)
    return LshConfig(d=lsh.d, selected_bits=tuple(bits), term_bits=lsh.term_bits)


def static_clusters(
    embeddings: EmbeddingSet,
    model: MlpModel,
    config: PipelineConfig,
    lsh_config: LshConfig = None,
) -> StaticRunResult:
    """Run the full static pipeline over one embedding set; timings holds
    the seconds of its five stages, which -v logs."""
    return _static_run(embeddings, model, config, lsh_config)[0]


def _static_run(embeddings: EmbeddingSet, model: MlpModel, config: PipelineConfig, lsh_config: LshConfig):
    """static_clusters' result, and the self_pairs its search cut to
    search.k: the candidate pairs before any K, for evaluate."""
    if len(embeddings) == 0:
        return StaticRunResult(ClusterTable(), lsh_config, timings={}), None

    stage = StageTimer()
    if lsh_config is None:
        lsh_config = resolve_lsh_config(config, embeddings)
    index = build_index(embeddings, lsh_config)
    stage("index", "%d images, %d postings", len(embeddings), index.posting_count())

    pairs = self_pairs(index, config.search.min_overlap)
    pairs_a, pairs_b, _ = top_pairs(pairs, config.search.k)
    stage("search", "%d candidate pairs", pairs_a.size)

    edges_a, edges_b, edge_scores, pairs_scored = select_edges(
        pairs_a, pairs_b, model, embeddings, config.classifier.threshold
    )
    stage("select", "scored %d of %d candidate pairs, kept %d edges", pairs_scored, pairs_a.size, edges_a.size)

    groups = transitive_closure(np.column_stack((edges_a, edges_b)))
    stage("closure", "%d groups", len(groups))

    # pivot pairs that are kept edges take their selection scores
    clusters = k_cut(
        groups,
        model,
        embeddings,
        config.classifier.threshold,
        seed=config.seed,
        scored=(edges_a, edges_b, edge_scores),
    )
    clusters = add_singletons(clusters, embeddings.ids)
    stage("cut", "%d clusters (%d non-singleton)", len(clusters), int((clusters.sizes > 1).sum()))

    result = StaticRunResult(
        clusters,
        lsh_config,
        edges=(edges_a, edges_b, edge_scores),
        candidate_pairs=int(pairs_a.size),
        pairs_scored=pairs_scored,
        timings=stage.seconds,
    )
    return result, pairs


def run_full(embeddings: EmbeddingSet, model: MlpModel, config: PipelineConfig, clusters_path):
    """Static run that persists its cluster table; returns (result, report).

    The output file is written atomically. An empty embedding set is a
    successful run producing an empty file.
    """
    result = static_clusters(embeddings, model, config)
    atomic_write_text(clusters_path, clusters_to_tsv(result.clusters))
    report = {
        "images": len(embeddings),
        "clusters": len(result.clusters),
        "non_singleton_clusters": int((result.clusters.sizes > 1).sum()),
        "candidate_pairs": result.candidate_pairs,
        "pairs_scored": result.pairs_scored,
        "edges": result.edge_count,
        "timings": {k: round(v, 6) for k, v in result.timings.items()},
    }
    return result, report


def train_default_model(
    embeddings: EmbeddingSet,
    truth: GroundTruth,
    config: PipelineConfig,
    lsh_config: LshConfig = None,
):
    """Train a classifier from ground truth; used when no model file exists.

    Label volume scales with corpus size, 14% positive like the synthetic
    label generator's default split. Hard negatives share at least
    search.min_overlap terms, as the candidates the search proposes do.
    """
    if lsh_config is None:
        lsh_config = resolve_lsh_config(config, embeddings)
    n = len(embeddings)
    total = min(60000, max(2000, 2 * n))
    available = int(sum(s * (s - 1) // 2 for s in truth.group_sizes()))
    if available == 0:
        raise DataError("corpus has no duplicate pairs to train on")
    cross = n * (n - 1) // 2 - available
    if cross == 0:
        raise DataError("corpus has no cross-group pairs to train on")
    n_pos = min(max(1, round(total * 0.14)), available)
    n_neg = min(max(1, total - n_pos), cross)
    pairs = generate_labels(
        truth, embeddings, n_pos, n_neg, seed=config.seed, lsh_config=lsh_config,
        min_overlap=config.search.min_overlap,
    )
    return train(pairs, embeddings, config), len(pairs)


def evaluate_pipeline(
    embeddings: EmbeddingSet,
    truth: GroundTruth,
    config: PipelineConfig,
    model: MlpModel = None,
    distance_threshold: int = 8,
) -> dict:
    """Cluster a labelled corpus and score the result against ground truth.

    When no model is passed, one is trained on the spot from the ground
    truth.
    """
    if len(embeddings) == 0:
        raise DataError("evaluation needs a non-empty corpus")
    lsh_config = resolve_lsh_config(config, embeddings)

    training = None
    if model is None:
        stage = StageTimer()
        result, n_pairs = train_default_model(embeddings, truth, config, lsh_config)
        stage("train", "%d pairs", n_pairs)
        model = result.model
        training = {
            "pairs": n_pairs,
            "epoch_losses": [round(x, 6) for x in result.epoch_losses],
            "validation": result.validation,
            "seconds": round(stage.seconds["train"], 3),
        }

    run, pairs = _static_run(embeddings, model, config, lsh_config)
    # the truth group of each table row, by one sorted lookup
    by_id = np.argsort(truth.ids, kind="stable")
    pos, known = find_sorted(truth.ids[by_id], run.clusters.image)
    if not known.all():
        raise DataError(f"image {run.clusters.image[~known][0]} has no ground-truth group")
    predicted, actual = run.clusters.cluster, truth.group_of[by_id[pos]]
    precision, recall = pairwise_precision_recall(predicted, actual)

    stage = StageTimer()
    group_vec = np.empty(len(embeddings), dtype=np.uint64)
    group_vec[embeddings.rows_of(run.clusters.image)] = actual
    # the run's own join, cut to RECALL_K instead of search.k
    r_at_d = recall_at_distance(embeddings, group_vec, top_pairs(pairs, RECALL_K), distance_threshold)
    stage("recall", "recall@%d %.4f", distance_threshold, r_at_d)

    sizes, counts = np.unique(run.clusters.sizes, return_counts=True)

    return {
        "images": len(embeddings),
        "clusters": len(run.clusters),
        "pairwise_precision": precision,
        "pairwise_recall": recall,
        "rand_index": rand_index(predicted, actual),
        "purity": purity(predicted, actual),
        "recall_at_distance": {"distance": distance_threshold, "value": r_at_d},
        "candidate_pairs": run.candidate_pairs,
        "pairs_scored": run.pairs_scored,
        "edges": run.edge_count,
        "cluster_size_histogram": dict(zip(map(str, sizes.tolist()), counts.tolist())),
        "timings": {k: round(v, 6) for k, v in {**run.timings, **stage.seconds}.items()},
        "training": training,
    }
