"""Acceptance gate: one test per release criterion, each printing a single
[PASS]/[FAIL] line (run with pytest -s to see them). Every bar is asserted,
nothing is warned away.

Criteria 2, 3 and 5 share the standard corpus fixture: ~10^5 images at
d=256 with duplicates within 8 bit flips of their base.
"""

import time

import numpy as np
import pytest

from neardup import (
    ClusterStore,
    ClusterTable,
    EmbeddingSet,
    LshConfig,
    PipelineConfig,
    SyntheticCorpusSpec,
    batch_search,
    build_index,
    evaluate_pipeline,
    generate_corpus,
    generate_labels,
    index_size_bytes,
    overlap_pairs,
    pairwise_precision_recall,
    pr_auc,
    rand_index,
    recall_at_distance,
    resolve_lsh_config,
    roc_auc,
    run_incremental,
    select_candidates,
    self_pairs,
    static_clusters,
    top_pairs,
    train,
    transitive_closure,
)
from neardup.classifier import init_model, loss_and_grads, predict_rows
from neardup.embeddings import derive_terms_matrix
from neardup.search import RECALL_K

from conftest import popcount_model, star_set
from test_clustering import as_lists, union_find_oracle
from test_metrics import pr_auc_oracle, roc_auc_oracle


def report(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def standard_corpus():
    spec = SyntheticCorpusSpec(seed=8128, n_base=48500, d=256, flip_min=1, flip_max=8)
    emb, truth = generate_corpus(spec)
    assert len(emb) >= 100_000
    assert len(truth.within_group_pairs()) >= 14_000
    lshc = resolve_lsh_config(PipelineConfig(), emb)
    return emb, truth, lshc


# -- 1: candidate generation vs brute force ----------------------------------


def overlap_oracle(emb, cfg, min_overlap):
    """All (query, index, overlap) triples by direct term comparison.

    Terms are group-prefixed, so positional equality of sorted term rows is
    exactly set intersection size.
    """
    terms = derive_terms_matrix(emb.bits_matrix(), cfg)
    ids = emb.ids.astype(np.int64)
    rows = []
    for s in range(0, ids.size, 512):
        counts = (terms[s : s + 512, None, :] == terms[None, :, :]).sum(axis=2)
        qq, ii = np.nonzero(counts >= min_overlap)
        keep = ids[s + qq] != ids[ii]
        rows.append(
            np.stack(
                [ids[s + qq][keep], ids[ii][keep], counts[qq, ii][keep].astype(np.int64)],
                axis=1,
            )
        )
    out = np.concatenate(rows) if rows else np.zeros((0, 3), dtype=np.int64)
    return out[np.lexsort((out[:, 1], out[:, 0]))]


def test_c01_candidate_generation_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    lsh64 = LshConfig(d=64, selected_bits=tuple(range(36)), term_bits=6)
    compared = 0
    for trial in range(20):
        wide = trial % 2 == 0
        d = 256 if wide else 64
        spec = SyntheticCorpusSpec(
            seed=int(rng.integers(1 << 30)),
            n_base=int(rng.integers(100, 800)),
            d=d,
            flip_min=0,
            flip_max=10 if wide else 6,
        )
        emb, _ = generate_corpus(spec)
        cfg = resolve_lsh_config(PipelineConfig(), emb) if wide else lsh64
        index = build_index(emb, cfg)
        min_overlap = trial % 3 + 1
        got_q, got_i, got_c = overlap_pairs(emb, index, min_overlap=min_overlap)
        got = np.stack([got_q.astype(np.int64), got_i.astype(np.int64), got_c], axis=1)
        got = got[np.lexsort((got[:, 1], got[:, 0]))]
        expected = overlap_oracle(emb, cfg, min_overlap)
        assert np.array_equal(got, expected)
        compared += expected.shape[0]
    elapsed = time.perf_counter() - t0
    report(
        1,
        "candidate generation matches brute force",
        elapsed < 60,
        f"20 corpora, {compared} candidate pairs identical, {elapsed:.1f}s",
    )


# -- 2: retrieval recall at distance ------------------------------------------


def test_c02_recall_at_distance_on_standard_corpus(standard_corpus):
    emb, truth, lshc = standard_corpus
    t0 = time.perf_counter()
    value = recall_at_distance(emb, truth.group_of, top_pairs(self_pairs(build_index(emb, lshc)), RECALL_K), 8)
    elapsed = time.perf_counter() - t0
    report(
        2,
        "recall@distance(8) on 10^5 images",
        value >= 0.99 and elapsed < 300,
        f"recall {value:.6f} over {len(emb)} images, {elapsed:.1f}s",
    )


# -- 3: posting list compression ----------------------------------------------


def test_c03_posting_payload_beats_baseline(standard_corpus):
    emb, _, lshc = standard_corpus
    index = build_index(emb, lshc)
    sizes = index_size_bytes(index)
    ratio = sizes.payload / sizes.baseline
    report(
        3,
        "posting payload <= 0.8x baseline",
        index.posting_count() >= 1_000_000 and sizes.payload <= 0.8 * sizes.baseline,
        f"{index.posting_count()} postings, payload {sizes.payload} B"
        f" vs baseline {sizes.baseline} B, ratio {ratio:.4f}",
    )


# -- 4: gradient check ----------------------------------------------------------


def test_c04_gradient_check():
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    h = 1e-6
    for widths in [(6, 5, 1), (8, 7, 3, 1), (12, 8, 4, 1)]:
        model = init_model(widths[0], hidden=widths[1:-1], seed=4)
        rng = np.random.default_rng(40 + widths[0])
        x = (rng.random((12, widths[0])) < 0.5).astype(np.float64)
        y = rng.integers(0, 2, size=12).astype(np.float64)
        _, gw, gb = loss_and_grads(model, x, y)
        for params, grads in ((model.weights, gw), (model.biases, gb)):
            for p, g in zip(params, grads):
                flat_p = p.reshape(-1)
                flat_g = g.reshape(-1)
                for k in range(flat_p.size):
                    orig = flat_p[k]
                    flat_p[k] = orig + h
                    up = loss_and_grads(model, x, y)[0]
                    flat_p[k] = orig - h
                    down = loss_and_grads(model, x, y)[0]
                    flat_p[k] = orig
                    numeric = (up - down) / (2 * h)
                    err = abs(numeric - flat_g[k]) / max(1.0, abs(numeric), abs(flat_g[k]))
                    worst = max(worst, err)
                    checked += 1
    elapsed = time.perf_counter() - t0
    report(
        4,
        "analytic gradients match finite differences",
        worst <= 1e-4 and elapsed < 10,
        f"max rel err {worst:.2e} over {checked} parameters, {elapsed:.1f}s",
    )


# -- 5: classifier quality at scale ---------------------------------------------


def test_c05_classifier_quality_and_determinism(standard_corpus):
    emb, truth, lshc = standard_corpus
    pairs = generate_labels(truth, emb, 14_000, 86_000, seed=5, lsh_config=lshc)
    positive_fraction = sum(p[2] for p in pairs) / len(pairs)

    t0 = time.perf_counter()
    cfg = PipelineConfig.from_dict({"seed": 7, "classifier": {"epochs": 3}})
    first = train(pairs, emb, cfg)
    second = train(pairs, emb, cfg)
    elapsed = time.perf_counter() - t0

    identical = (
        all(np.array_equal(a, b) for a, b in zip(first.model.weights, second.model.weights))
        and all(np.array_equal(a, b) for a, b in zip(first.model.biases, second.model.biases))
        and first.validation == second.validation
    )
    val = first.validation
    report(
        5,
        "classifier AUC on held-out pairs",
        len(pairs) >= 100_000
        and positive_fraction == pytest.approx(0.14)
        and val["pr_auc"] >= 0.95
        and val["roc_auc"] >= 0.98
        and identical
        and elapsed < 600,
        f"{len(pairs)} pairs ({positive_fraction:.0%} positive), validation size {val['size']},"
        f" PR AUC {val['pr_auc']:.4f}, ROC AUC {val['roc_auc']:.4f},"
        f" retrain bit-identical: {identical}, {elapsed:.0f}s",
    )


# -- 6: transitive closure vs union-find ----------------------------------------


def test_c06_closure_matches_union_find_at_scale():
    rng = np.random.default_rng(606)
    total_edges = 0
    for _ in range(100):
        n_nodes = int(rng.integers(2, 10_001))
        n_edges = int(rng.integers(0, 2 * n_nodes))
        pool = rng.choice(5 * n_nodes, size=n_nodes, replace=False)
        a = pool[rng.integers(0, n_nodes, size=n_edges)]
        b = pool[rng.integers(0, n_nodes, size=n_edges)]
        edges = [(int(x), int(y)) for x, y in zip(a, b)]
        assert as_lists(transitive_closure(edges)) == union_find_oracle(edges)
        total_edges += n_edges
    report(
        6,
        "transitive closure equals union-find",
        True,
        f"100 graphs, {total_edges} edges, 0 mismatches",
    )


# -- 7: k-cut postconditions -----------------------------------------------------


def test_c07_kcut_partitions_and_members_clear_threshold():
    model = popcount_model(256, 15.5)  # score >= 0.9 iff hamming <= 15
    config = PipelineConfig.from_dict(
        {"classifier": {"threshold": 0.9}}
    )
    rng = np.random.default_rng(707)
    clusters_seen = 0
    members_rescored = 0
    for _ in range(12):
        spec = SyntheticCorpusSpec(
            seed=int(rng.integers(1 << 30)),
            n_base=int(rng.integers(200, 600)),
            d=256,
            flip_min=0,
            flip_max=10,
        )
        emb, _ = generate_corpus(spec)
        run = static_clusters(emb, model, config)
        got_ids = sorted(i for c in run.clusters for i in c.image_ids)
        assert got_ids == sorted(int(i) for i in emb.ids)
        for c in run.clusters:
            clusters_seen += 1
            if not c.members:
                continue
            rows = emb.rows_of([m for m, _ in c.members])
            scores = predict_rows(model, emb, rows, emb.rows_of([c.head] * rows.size))
            assert (scores >= 0.9).all()
            stored = np.array([s for _, s in c.members])
            assert scores == pytest.approx(stored, abs=1e-9)
            members_rescored += len(c.members)
    report(
        7,
        "k-cut output is a partition and members clear the threshold",
        True,
        f"12 corpora, {clusters_seen} clusters, {members_rescored} members rescored,"
        " 0 violations",
    )


# -- 8: augmentation recall lift -------------------------------------------------


def test_c08_augmentation_is_superset_and_lifts_recall():
    # Adversarial geometry: each group has a tight core (base plus members at
    # 2 and 4 flips) and a probe at 14-15 flips from the base, disjoint from
    # the member flips. The probe clears the threshold (hamming <= 15) only
    # against the base, so it is lost whenever the k-cut pivot happened to be
    # a member, unless the augmentation list brings the base back in.
    d = 256
    lshc = LshConfig(d=d, selected_bits=tuple(range(144)), term_bits=12)
    model = popcount_model(d, 15.5)
    config = PipelineConfig.from_dict(
        {"classifier": {"threshold": 0.9}}
    )
    n_groups = 40

    all_ids, all_bits, truth_map = [], [], {}
    store_ids, probe_ids = [], []
    for i in range(n_groups):
        base = 1000 + 10 * i
        probe_flips = list(range(20, 34 + i % 2))  # 14 or 15 flips
        members = [
            (base, []),
            (base + 1, [0, 1]),
            (base + 2, [0, 1, 2, 3]),
            (base + 3, probe_flips),
        ]
        star = star_set(d, 800 + i, members)
        all_ids.append(star.ids)
        all_bits.append(star.bits_matrix())
        store_ids += [base, base + 1, base + 2]
        probe_ids.append(base + 3)
        for image_id, _ in members:
            truth_map[image_id] = base
    full = EmbeddingSet.from_bits(np.concatenate(all_ids), np.vstack(all_bits))

    run = static_clusters(full.subset(store_ids), model, config, lsh_config=lshc)
    assert sorted(c.cluster_id for c in run.clusters) == sorted(set(truth_map.values()))
    assert all(c.size == 3 for c in run.clusters)
    member_pivots = sum(1 for c in run.clusters if c.head != min(c.image_ids))
    assert member_pivots >= 1  # otherwise nothing is at stake

    store = ClusterStore.initialize(run.clusters, full.subset(store_ids), lshc, k_aug=3)
    hits = batch_search(full.subset(probe_ids), store.head_index, k=20, min_overlap=2)
    plain = select_candidates(hits, store.heads, model, full, 0.9, k_aug=0)
    augmented = select_candidates(hits, store.heads, model, full, 0.9, k_aug=3)

    map_plain = dict(zip(plain.query.tolist(), plain.cluster.tolist()))
    map_aug = dict(zip(augmented.query.tolist(), augmented.cluster.tolist()))
    superset = all(map_aug.get(q) == c for q, c in map_plain.items())
    correct = all(map_aug.get(q) == truth_map[q] for q in probe_ids)

    def recall_with(matches):
        predicted = {i: c.cluster_id for c in run.clusters for i in c.image_ids}
        for q in probe_ids:
            predicted[q] = matches.get(q, q)  # unmatched probes stay singletons
        ids = list(truth_map)
        return pairwise_precision_recall([predicted[i] for i in ids], [truth_map[i] for i in ids])[1]

    r_plain, r_aug = recall_with(map_plain), recall_with(map_aug)
    report(
        8,
        "augmentation matches are a superset and recall rises",
        superset and correct and len(map_aug) == n_groups and r_aug > r_plain,
        f"{member_pivots}/{n_groups} member pivots, matched {len(map_plain)} -> {len(map_aug)},"
        f" pairwise recall {r_plain:.3f} -> {r_aug:.3f}",
    )


# -- 9: incremental vs static ----------------------------------------------------


def test_c09_incremental_tracks_static_and_reingest_is_noop():
    d = 256
    lshc = LshConfig(d=d, selected_bits=tuple(range(144)), term_bits=12)
    model = popcount_model(d, 15.5)
    config = PipelineConfig.from_dict(
        {"classifier": {"threshold": 0.9}}
    )

    all_ids, all_bits = [], []
    batch_ids = [[], [], []]
    for i, size in enumerate([3, 4, 5, 6] * 3):
        members = [(2000 + 20 * i + j, list(range(j))) for j in range(size)]
        star = star_set(d, 900 + i, members)
        all_ids.append(star.ids)
        all_bits.append(star.bits_matrix())
        for j, (image_id, _) in enumerate(members):
            batch_ids[(i + j) % 3].append(image_id)
    full = EmbeddingSet.from_bits(np.concatenate(all_ids), np.vstack(all_bits))
    batches = [full.subset(ids) for ids in batch_ids]

    static = static_clusters(full, model, config, lsh_config=lshc)

    empty = EmbeddingSet.from_bits(np.zeros(0, dtype=np.uint64), np.zeros((0, d), dtype=np.uint8))
    store = ClusterStore.initialize(ClusterTable(), empty, lshc, k_aug=3)
    for batch in batches:
        store, _, _ = run_incremental(store, batch, model, config)

    static_map = static.assignment()
    ri = rand_index(store.table.cluster, [static_map[i] for i in store.table.image.tolist()])

    again, rows, _ = run_incremental(store, batches[-1], model, config)
    fresh_rows = [r for r in rows if r[2] != "existing"]
    report(
        9,
        "3-batch incremental matches static and re-ingest is a no-op",
        ri >= 0.95 and not fresh_rows and again.n_clusters == store.n_clusters,
        f"rand index {ri:.4f} over {len(full)} images,"
        f" re-ingest touched {len(fresh_rows)} images, {again.n_clusters} clusters",
    )


# -- 10: exact duplicates end to end ----------------------------------------------


def test_c10_exact_duplicates_are_perfectly_clustered():
    spec = SyntheticCorpusSpec(seed=1010, n_base=2500, d=256, flip_min=0, flip_max=0)
    emb, truth = generate_corpus(spec)
    model = popcount_model(256, 15.5)
    config = PipelineConfig.from_dict(
        {"classifier": {"threshold": 0.9}}
    )
    metrics = evaluate_pipeline(emb, truth, config, model=model)
    report(
        10,
        "zero-flip corpus clusters exactly",
        metrics["pairwise_precision"] == 1.0 and metrics["pairwise_recall"] == 1.0,
        f"precision {metrics['pairwise_precision']} recall {metrics['pairwise_recall']}"
        f" on {metrics['images']} images in {metrics['clusters']} clusters",
    )


# -- 11: AUC metrics vs exhaustive oracles ------------------------------------------


def test_c11_auc_matches_exhaustive_oracles():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for trial in range(60):
        n = int(rng.integers(2, 1001))
        # odd trials use a coarse grid so ties are exercised
        scores = np.round(rng.random(n), 2) if trial % 2 else rng.random(n)
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        if labels.min() == labels.max():
            labels[0] = 1.0 - labels[0]
        worst = max(
            worst,
            abs(pr_auc(scores, labels) - pr_auc_oracle(scores, labels)),
            abs(roc_auc(scores, labels) - roc_auc_oracle(scores, labels)),
        )
    report(
        11,
        "PR/ROC AUC match exhaustive threshold oracles",
        worst <= 1e-9,
        f"60 inputs up to 1000 pairs, worst deviation {worst:.2e}",
    )
