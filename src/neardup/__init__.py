"""Near-duplicate image detection over binary embeddings.

Three stages: LSH term search over variance-selected bits proposes
candidates, a small MLP over XOR features verifies pairs, and greedy
threshold clustering turns verified edges into head-led clusters. Batches
arrive incrementally through a persistent cluster store.
"""

from .classifier import (
    MlpModel,
    TrainResult,
    choose_threshold,
    init_model,
    load_model,
    predict_rows,
    save_model,
    train,
)
from .clustering import (
    ClusterTable,
    NearDupeCluster,
    choose_head,
    k_cut,
    read_clusters_tsv,
    transitive_closure,
)
from .config import PipelineConfig
from .corpus import (
    GroundTruth,
    SyntheticCorpusSpec,
    generate_corpus,
    generate_labels,
    load_corpus,
    read_labels_csv,
    save_corpus,
    write_labels_csv,
)
from .embeddings import EmbeddingSet, LshConfig, select_bits
from .errors import (
    ConfigMismatchError,
    DataError,
    DimensionError,
    FormatError,
    IndexBuildError,
    MetricError,
    ModelError,
    NearDupError,
    SamplingError,
    StoreError,
    TrainingError,
)
from .incremental import (
    ClusterStore,
    assignments_to_tsv,
    merge,
    run_incremental,
    run_nvn,
    run_nvo,
)
from .index import PostingIndex, build_index, index_size_bytes, load_index, save_index
from .metrics import pairwise_precision_recall, pr_auc, purity, rand_index, roc_auc
from .pipeline import (
    evaluate_pipeline,
    resolve_lsh_config,
    run_full,
    static_clusters,
    train_default_model,
)
from .search import (
    SearchHit,
    SearchResultBatch,
    batch_search,
    overlap_pairs,
    recall_at_distance,
    self_pairs,
    top_pairs,
    unordered_pairs,
)
from .selection import (
    ClusterHeads,
    HeadMatches,
    emit_augmentation_labels,
    select_candidates,
    select_edges,
)

__version__ = "0.1.0"
