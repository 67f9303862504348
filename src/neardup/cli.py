"""Command line front end: one subcommand per stage plus end-to-end runs.

Every pipeline setting comes from the one --config file (its defaults when
the flag is left out), so build-index, search, select and cluster in turn
write the same cluster file as run. Every output file is written atomically
(temp file + rename), so an aborted command never leaves a partial artifact
behind. Failures, a failed allocation among them, print the failing stage
to stderr and exit 1. Logging goes to stderr; -v raises verbosity.
"""

import argparse
import json
import logging
import sys

import numpy as np

from .classifier import load_model, predict_rows, save_model, train
from .clustering import add_singletons, clusters_to_tsv, k_cut, read_clusters_tsv, transitive_closure
from .config import PipelineConfig
from .corpus import (
    SyntheticCorpusSpec,
    generate_corpus,
    load_corpus,
    read_labels_csv,
    read_pairs_csv,
    save_corpus,
    write_labels_csv,
)
from .embeddings import EmbeddingSet
from .errors import DataError, NearDupError
from .incremental import assignments_to_tsv, run_incremental
from .index import build_index, load_index, save_index
from .pipeline import resolve_lsh_config, run_full
from .search import SearchResultBatch, batch_search, unordered_pairs
from .selection import ClusterHeads, emit_augmentation_labels, select_candidates, select_edges
from .util import U64, atomic_write_json, atomic_write_text, read_columns

log = logging.getLogger("neardup")


def _load_config(path) -> PipelineConfig:
    return PipelineConfig.load(path) if path else PipelineConfig()


def _load_embeddings(paths) -> EmbeddingSet:
    sets = [EmbeddingSet.load(p) for p in paths]
    merged = sets[0]
    for s in sets[1:]:
        merged = merged.concat(s)
    return merged


# -- subcommands --------------------------------------------------------------


def cmd_gen_corpus(args) -> int:
    dupes = None
    if args.dupes_dist:
        try:
            raw = json.loads(args.dupes_dist)
            dupes = {int(k): float(v) for k, v in raw.items()}
        except (ValueError, AttributeError, TypeError) as exc:
            raise DataError(f"--dupes-dist must be a JSON object of count: weight: {exc}")
    kwargs = dict(
        seed=args.seed,
        n_base=args.n_base,
        d=args.d,
        flip_min=args.flip_min,
        flip_max=args.flip_max,
    )
    if dupes is not None:
        kwargs["dupes_per_base"] = dupes
    spec = SyntheticCorpusSpec(**kwargs)
    embeddings, truth = generate_corpus(spec)
    save_corpus(embeddings, truth, args.out, spec)
    print(f"{len(embeddings)} images in {truth.group_sizes().size} groups -> {args.out}")
    return 0


def cmd_build_index(args) -> int:
    embeddings = _load_embeddings(args.embeddings)
    config = _load_config(args.config)
    lsh = resolve_lsh_config(config, embeddings)
    if args.heads:
        head_ids = sorted(read_clusters_tsv(args.heads).heads.tolist())
        index = build_index(embeddings.subset(head_ids), lsh)
    else:
        index = build_index(embeddings, lsh)
    sizes = save_index(index, args.out)
    print(
        f"{len(index.dictionary)} images, {index.posting_count()} postings, "
        f"{sizes.serialized} bytes ({sizes.payload} payload, {sizes.baseline} uncompressed) -> {args.out}"
    )
    return 0


def cmd_search(args) -> int:
    index = load_index(args.index)
    queries = _load_embeddings(args.queries)
    search = _load_config(args.config).search
    hits = batch_search(queries, index, k=search.k, min_overlap=search.min_overlap)
    rows = zip(hits.query.tolist(), hits.hit.tolist(), hits.overlap.tolist(), hits.jaccard.tolist())
    atomic_write_text(args.out, "".join(f"{q}\t{h}\t{o}\t{j:.6f}\n" for q, h, o, j in rows))
    print(f"{hits.query.size} hits for {len(queries)} queries -> {args.out}")
    return 0


def cmd_train_classifier(args) -> int:
    embeddings = _load_embeddings(args.embeddings)
    config = _load_config(args.config)
    pairs = read_labels_csv(args.labels)
    result = train(pairs, embeddings, config)
    save_model(result.model, args.out)
    report = {
        "pairs": len(pairs),
        "epoch_losses": [round(x, 6) for x in result.epoch_losses],
        "validation": result.validation,
    }
    if args.report:
        atomic_write_json(args.report, report)
    chosen = result.validation.get("threshold")
    cut = "no validation threshold" if chosen is None else f"validation threshold {chosen:.6f}"
    print(f"trained on {len(pairs)} pairs, final loss {result.epoch_losses[-1]:.6f}, {cut} -> {args.out}")
    return 0


def cmd_classify(args) -> int:
    model = load_model(args.model)
    embeddings = _load_embeddings(args.embeddings)
    pairs = read_pairs_csv(args.pairs)
    scores = predict_rows(model, embeddings, embeddings.rows_of(pairs[:, 0]), embeddings.rows_of(pairs[:, 1]))
    body = "id_a,id_b,score\n" + "".join(
        f"{a},{b},{s:.9f}\n" for (a, b), s in zip(pairs.tolist(), scores)
    )
    atomic_write_text(args.out, body)
    print(f"scored {len(pairs)} pairs -> {args.out}")
    return 0


def _read_hits_tsv(path) -> SearchResultBatch:
    """The hits of a search output file, sorted by query id, file order kept
    within a query."""
    query, hit, overlap, jaccard = read_columns(path, [U64, U64, (int, np.int64), (float, np.float64)])
    order = np.argsort(query, kind="stable")
    return SearchResultBatch(np.unique(query), *(a[order] for a in (query, hit, overlap, jaccard)))


def cmd_select(args) -> int:
    model = load_model(args.model)
    embeddings = _load_embeddings(args.embeddings)
    hits = _read_hits_tsv(args.hits)
    config = _load_config(args.config)
    threshold, k_aug = config.classifier.threshold, config.augmentation.k_aug
    if args.clusters:
        heads = ClusterHeads.from_table(read_clusters_tsv(args.clusters), k_aug)
        matches = select_candidates(hits, heads, model, embeddings, threshold, k_aug=k_aug)
        rows = zip(*(a.tolist() for a in (matches.query, matches.cluster, matches.via, matches.score)))
        atomic_write_text(args.out, "".join(f"{q}\t{c}\t{v}\t{s:.6f}\n" for q, c, v, s in rows))
        print(f"{len(matches)} matched queries -> {args.out}")
        if args.labels_out:
            labels = emit_augmentation_labels(matches, heads)
            write_labels_csv(labels, args.labels_out)
            print(f"{len(labels)} augmentation labels -> {args.labels_out}")
    else:
        pairs_a, pairs_b = unordered_pairs(hits)
        a, b, scores, pairs_scored = select_edges(pairs_a, pairs_b, model, embeddings, threshold)
        atomic_write_text(
            args.out,
            "".join(f"{x}\t{y}\t{s:.6f}\n" for x, y, s in zip(a.tolist(), b.tolist(), scores)),
        )
        print(f"scored {pairs_scored} of {pairs_a.size} candidate pairs, kept {a.size} edges -> {args.out}")
    return 0


def cmd_cluster(args) -> int:
    model = load_model(args.model)
    embeddings = _load_embeddings(args.embeddings)
    config = _load_config(args.config)
    edges = read_columns(args.edges, [U64, U64], exact=False)
    groups = transitive_closure(np.column_stack(edges))
    # the edges file rounds scores, so the pivot pairs are scored afresh
    clusters = k_cut(groups, model, embeddings, config.classifier.threshold, seed=config.seed)
    clusters = add_singletons(clusters, embeddings.ids)
    atomic_write_text(args.out, clusters_to_tsv(clusters))
    print(f"{len(clusters)} clusters over {clusters.image.size} images -> {args.out}")
    return 0


def cmd_run(args) -> int:
    embeddings = _load_embeddings(args.embeddings)
    model = load_model(args.model)
    config = _load_config(args.config)
    result, report = run_full(embeddings, model, config, args.out)
    if args.report:
        atomic_write_json(args.report, report)
    print(
        f"{report['images']} images -> {report['clusters']} clusters "
        f"({report['non_singleton_clusters']} non-singleton) -> {args.out}"
    )
    return 0


def cmd_incremental(args) -> int:
    new_embeddings = _load_embeddings(args.new)
    model = load_model(args.model)
    config = _load_config(args.config)
    store, assignments, labels = run_incremental(args.store, new_embeddings, model, config)
    if args.assignments:
        atomic_write_text(args.assignments, assignments_to_tsv(assignments))
    if args.clusters_out:
        atomic_write_text(args.clusters_out, clusters_to_tsv(store.table))
    if args.labels_out:
        write_labels_csv(labels, args.labels_out)
    by_prov = {}
    for _, _, prov in assignments:
        by_prov[prov] = by_prov.get(prov, 0) + 1
    detail = ", ".join(f"{k}={v}" for k, v in sorted(by_prov.items())) or "empty batch"
    print(
        f"batch of {len(new_embeddings)}: {detail}; "
        f"store now {len(store)} images in {store.n_clusters} clusters"
    )
    return 0


def cmd_evaluate(args) -> int:
    from .pipeline import evaluate_pipeline

    embeddings, truth = load_corpus(args.corpus)
    config = _load_config(args.config)
    model = load_model(args.model) if args.model else None
    report = evaluate_pipeline(
        embeddings, truth, config, model=model, distance_threshold=args.distance
    )
    if args.report:
        atomic_write_json(args.report, report)
    print(
        f"precision {report['pairwise_precision']:.4f}, recall {report['pairwise_recall']:.4f}, "
        f"rand {report['rand_index']:.4f}, recall@{args.distance} "
        f"{report['recall_at_distance']['value']:.4f}"
    )
    return 0


# -- wiring -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neardup", description="near-duplicate image detection over binary embeddings"
    )
    parser.add_argument("-v", "--verbose", action="count", default=0, help="log progress to stderr (-vv for debug)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic labelled corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-base", type=int, default=1000)
    p.add_argument("--d", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--flip-min", type=int, default=1)
    p.add_argument("--flip-max", type=int, default=12)
    p.add_argument("--dupes-dist", help='JSON dupe-count distribution, e.g. \'{"0":0.5,"3":0.5}\'')
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("build-index", help="build a term index from embeddings")
    p.add_argument("--embeddings", action="append", required=True, help="embedding file (repeatable)")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--heads", help="clusters TSV: index only its head images")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("search", help="batch search queries against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", action="append", required=True)
    p.add_argument("--config", help="pipeline config JSON: search.k, search.min_overlap")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train-classifier", help="train the pair classifier from labels")
    p.add_argument("--labels", required=True, help="labels CSV (id_a,id_b,label)")
    p.add_argument("--embeddings", action="append", required=True)
    p.add_argument("--out", required=True, help="model file")
    p.add_argument("--config")
    p.add_argument("--report", help="JSON training report")
    p.set_defaults(func=cmd_train_classifier)

    p = sub.add_parser("classify", help="score image pairs with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", action="append", required=True)
    p.add_argument("--pairs", required=True, help="CSV with header id_a,id_b")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("select", help="filter search hits with the classifier")
    p.add_argument("--hits", required=True, help="search output TSV")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", action="append", required=True)
    p.add_argument("--config", help="pipeline config JSON: classifier.threshold, augmentation.k_aug")
    p.add_argument("--clusters", help="clusters TSV: match against heads instead of emitting edges")
    p.add_argument("--labels-out", help="CSV for augmentation-recovered positive labels")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("cluster", help="closure + threshold cut over verified edges")
    p.add_argument("--edges", required=True, help="edges TSV from select")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", action="append", required=True)
    p.add_argument("--config", help="pipeline config JSON: classifier.threshold, seed")
    p.add_argument("--out", required=True, help="clusters TSV: every image of --embeddings")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("run", help="full static pipeline: embeddings to clusters")
    p.add_argument("--embeddings", action="append", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True, help="clusters TSV")
    p.add_argument("--report", help="JSON run report")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("incremental", help="ingest a batch into a cluster store")
    p.add_argument("--store", required=True, help="store directory (created if missing)")
    p.add_argument("--new", action="append", required=True, help="embedding file of the batch")
    p.add_argument("--model", required=True)
    p.add_argument("--config")
    p.add_argument("--assignments", help="TSV: image, cluster, provenance")
    p.add_argument("--labels-out", help="CSV for augmentation-recovered positive labels")
    p.add_argument("--clusters-out", help="clusters TSV of the whole store after the batch")
    p.set_defaults(func=cmd_incremental)

    p = sub.add_parser("evaluate", help="cluster a labelled corpus and score it")
    p.add_argument("--corpus", required=True, help="corpus directory from gen-corpus")
    p.add_argument("--config")
    p.add_argument("--model", help="model file (trained on the fly when omitted)")
    p.add_argument("--distance", type=int, default=8, help="hamming radius for recall@distance")
    p.add_argument("--report", help="JSON evaluation report")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except (NearDupError, OSError, MemoryError) as exc:
        # a failed allocation has no message when Python, not NumPy, raises it
        print(f"error in {args.command}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
