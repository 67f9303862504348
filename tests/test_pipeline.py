"""End-to-end static pipeline and config handling."""

import json
import os
import re

import numpy as np
import pytest

from neardup import (
    DataError,
    EmbeddingSet,
    GroundTruth,
    PipelineConfig,
    evaluate_pipeline,
    resolve_lsh_config,
    run_full,
    select_bits,
    static_clusters,
    train_default_model,
)
from neardup import pipeline
from neardup.embeddings import derive_terms_matrix

from conftest import popcount_model, star_set

D = 64


def toy_config(**overrides):
    payload = {
        "lsh": {"d": D, "m": 36, "term_bits": 6},
        "classifier": {"threshold": 0.5, "hidden": [8], "epochs": 2},
    }
    payload.update(overrides)
    return PipelineConfig.from_dict(payload)


def three_group_corpus():
    # groups {0,1,2}, {10,11}, {20}; intra distance <= 2, inter >= 16
    members = [
        (0, []),
        (1, [0]),
        (2, [1]),
        (10, list(range(10, 26))),
        (11, list(range(10, 26)) + [30]),
        (20, list(range(40, 60))),
    ]
    emb = star_set(D, 61, members)
    truth = GroundTruth(
        np.array([0, 1, 2, 10, 11, 20], dtype=np.uint64),
        np.array([0, 0, 0, 10, 10, 20], dtype=np.uint64),
    )
    return emb, truth


def test_empty_input_is_a_successful_run(tmp_path):
    emb = EmbeddingSet.from_bits(
        np.zeros(0, dtype=np.uint64), np.zeros((0, D), dtype=np.uint8)
    )
    model = popcount_model(D, 9.5)
    result, report = run_full(emb, model, toy_config(), tmp_path / "c.tsv")
    assert len(result.clusters) == 0
    assert (tmp_path / "c.tsv").read_text() == ""
    assert report["images"] == 0 and report["clusters"] == 0


def test_exact_duplicates_form_one_cluster():
    bits = np.random.default_rng(1).integers(0, 2, size=(1, D), dtype=np.uint8)
    emb = EmbeddingSet.from_bits(
        np.array([4, 9], dtype=np.uint64), np.vstack([bits, bits])
    )
    result = static_clusters(emb, popcount_model(D, 9.5), toy_config())
    assert len(result.clusters) == 1
    (c,) = result.clusters
    assert c.cluster_id == 4
    assert sorted(c.image_ids) == [4, 9]
    assert result.edge_count == 1


def test_static_run_is_deterministic(tmp_path):
    emb, _ = three_group_corpus()
    model = popcount_model(D, 9.5)
    cfg = toy_config()
    _, rep1 = run_full(emb, model, cfg, tmp_path / "a.tsv")
    _, rep2 = run_full(emb, model, cfg, tmp_path / "b.tsv")
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    assert rep1["edges"] == rep2["edges"]


def test_output_is_a_partition():
    emb, _ = three_group_corpus()
    result = static_clusters(emb, popcount_model(D, 9.5), toy_config())
    assignment = result.assignment()
    assert sorted(assignment) == [0, 1, 2, 10, 11, 20]
    # far-apart images come back as singletons even with no search hit
    assert assignment[20] == 20
    parts = sorted(sorted(c.image_ids) for c in result.clusters)
    assert parts == [[0, 1, 2], [10, 11], [20]]
    for c in result.clusters:
        assert c.cluster_id == min(c.image_ids)


def test_static_clusters_logs_and_times_its_five_stages(caplog):
    emb, _ = three_group_corpus()
    with caplog.at_level("INFO", logger="neardup"):
        result = static_clusters(emb, popcount_model(D, 9.5), toy_config())
    timed = [re.fullmatch(r"(\w+) (\d+\.\d{3})s: .+", r.getMessage()) for r in caplog.records]
    assert all(timed)
    stages = ["index", "search", "select", "closure", "cut"]
    assert [m.group(1) for m in timed] == stages
    assert list(result.timings) == stages
    for m in timed:
        assert float(m.group(2)) == pytest.approx(result.timings[m.group(1)], abs=6e-4)


def test_resolve_lsh_config_auto_vs_explicit(rng):
    bits = rng.integers(0, 2, size=(200, D), dtype=np.uint8)
    emb = EmbeddingSet.from_bits(np.arange(200, dtype=np.uint64), bits)

    auto = resolve_lsh_config(toy_config(), emb)
    assert list(auto.selected_bits) == select_bits(bits, D, 36)

    explicit = toy_config()
    explicit.lsh.selected_bits = list(range(36))
    got = resolve_lsh_config(explicit, emb)
    assert got.selected_bits == tuple(range(36))

    # selection sample is the first select_sample rows only
    capped = toy_config()
    capped.lsh.select_sample = 50
    assert list(resolve_lsh_config(capped, emb).selected_bits) == select_bits(
        bits[:50], D, 36
    )

    wrong_d = EmbeddingSet.from_bits(
        np.array([0], dtype=np.uint64), np.zeros((1, 128), dtype=np.uint8)
    )
    with pytest.raises(DataError):
        resolve_lsh_config(toy_config(), wrong_d)


def test_config_defaults_and_round_trip(tmp_path):
    cfg = PipelineConfig.from_dict({})
    assert cfg.lsh.d == 256 and cfg.lsh.m == 144 and cfg.lsh.term_bits == 12
    assert cfg.search.k == 20 and cfg.search.min_overlap == 2
    assert cfg.classifier.threshold == 0.9 and "kcut" not in cfg.to_dict()
    assert cfg.augmentation.k_aug == 3

    path = tmp_path / "cfg.json"
    toy = toy_config(seed=7)
    toy.save(path)
    assert PipelineConfig.load(path).to_dict() == toy.to_dict()


def test_readme_config_example_is_the_default_config():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Configuration", 1)[1]
    (block,) = re.findall(r"```json\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    assert PipelineConfig.from_dict(json.loads(block)).to_dict() == PipelineConfig().to_dict()


def test_config_rejects_unknown_and_invalid():
    with pytest.raises(DataError):
        PipelineConfig.from_dict({"typo": {}})
    with pytest.raises(DataError, match="unknown config keys: \\['kcut'\\]"):
        PipelineConfig.from_dict({"kcut": {"threshold": 0.9}})  # the cut uses classifier.threshold
    with pytest.raises(DataError):
        PipelineConfig.from_dict({"lsh": {"bogus_key": 1}})
    with pytest.raises(DataError):
        PipelineConfig.from_dict({"lsh": {"m": 10, "term_bits": 12}})  # m % g != 0
    with pytest.raises(DataError):
        PipelineConfig.from_dict({"classifier": {"threshold": 1.5}})
    with pytest.raises(DataError, match="unknown keys in ClassifierSettings: \\['model_path'\\]"):
        PipelineConfig.from_dict({"classifier": {"model_path": __file__}})  # evaluate takes --model
    with pytest.raises(DataError):
        PipelineConfig.from_dict({"search": {"k": 0}})
    # a model file holds each layer dimension as a u32
    assert PipelineConfig.from_dict({"classifier": {"hidden": [2**32 - 1]}}).classifier.hidden == [2**32 - 1]
    with pytest.raises(DataError, match="classifier.hidden width 4294967296"):
        PipelineConfig.from_dict({"classifier": {"hidden": [8, 2**32]}})
    # np.random.default_rng takes no negative seed
    with pytest.raises(DataError, match="seed must be >= 0, got -1"):
        PipelineConfig.from_dict({"seed": -1})
    # an integer reaches NumPy as int64, alone or in a list, and in a float field too
    assert PipelineConfig.from_dict({"augmentation": {"k_aug": 2**63 - 1}}).augmentation.k_aug == 2**63 - 1
    for payload in (
        {"augmentation": {"k_aug": 2**63}},
        {"augmentation": {"k_aug": 2**70}},
        {"seed": -(2**63) - 1},
        {"classifier": {"hidden": [8, 2**63]}},
        {"classifier": {"learning_rate": 2**63}},
    ):
        with pytest.raises(DataError, match=r"must lie in \[-2\^63, 2\^63\)"):
            PipelineConfig.from_dict(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"search": {"k": "5"}},
        {"seed": "abc"},
        {"lsh": {"selected_bits": 3}},
        {"classifier": {"hidden": 5}},
        {"classifier": {"hidden": [64, "32"]}},
        {"classifier": {"threshold": "0.5"}},
        {"augmentation": {"k_aug": True}},
        {"classifier": {"epochs": 2.5}},
        {"threads": 2},
    ],
)
def test_config_rejects_values_of_the_wrong_type(payload):
    with pytest.raises(DataError):
        PipelineConfig.from_dict(payload)


def test_evaluate_pipeline_exact_on_clean_corpus():
    emb, truth = three_group_corpus()
    report = evaluate_pipeline(
        emb, truth, toy_config(), model=popcount_model(D, 9.5), distance_threshold=4
    )
    assert report["pairwise_precision"] == 1.0
    assert report["pairwise_recall"] == 1.0
    assert report["rand_index"] == 1.0
    assert report["purity"] == 1.0
    assert report["recall_at_distance"] == {"distance": 4, "value": 1.0}
    assert report["cluster_size_histogram"] == {"1": 1, "2": 1, "3": 1}
    assert report["training"] is None  # a model was supplied


def test_evaluate_pipeline_needs_a_group_for_every_image():
    emb, truth = three_group_corpus()
    partial = GroundTruth(truth.ids[:-1], truth.group_of[:-1])
    with pytest.raises(DataError, match="image 20 has no ground-truth group"):
        evaluate_pipeline(emb, partial, toy_config(), model=popcount_model(D, 9.5))


def test_evaluate_pipeline_rejects_empty():
    emb = EmbeddingSet.from_bits(
        np.zeros(0, dtype=np.uint64), np.zeros((0, D), dtype=np.uint8)
    )
    truth = GroundTruth(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64))
    with pytest.raises(DataError):
        evaluate_pipeline(emb, truth, toy_config())


def test_train_default_model_clamps_to_available_positives():
    # one duplicate pair in the whole corpus: n_pos clamps to 1
    members = [(0, []), (1, [0])] + [(10 + i, list(range(i, i + 20))) for i in range(6)]
    emb = star_set(D, 67, members)
    ids = np.array([m for m, _ in members], dtype=np.uint64)
    groups = np.array([0, 0] + [10 + i for i in range(6)], dtype=np.uint64)
    truth = GroundTruth(ids, groups)
    result, n_pairs = train_default_model(emb, truth, toy_config())
    assert n_pairs == 28  # 1 positive + all 27 cross-group pairs
    assert result.model.input_dim == D

    all_single = GroundTruth(ids, ids)
    with pytest.raises(DataError):
        train_default_model(emb, all_single, toy_config())


def test_train_default_model_draws_hard_negatives_at_search_min_overlap(monkeypatch):
    # 50 duplicate pairs whose six terms each take one of two values, so
    # cross-group pairs share 0 to 6 terms; a duplicate differs from its
    # base in one bit outside the terms
    rng = np.random.default_rng(5)
    values = rng.integers(0, 2, size=(2, 36), dtype=np.uint8)
    pick = rng.integers(0, 2, size=(50, 6)).repeat(6, axis=1).astype(bool)
    tails = rng.integers(0, 2, size=(50, D - 36), dtype=np.uint8)
    bits = np.hstack([np.where(pick, values[1], values[0]), tails]).repeat(2, axis=0)
    bits[1::2, -1] ^= 1
    ids = np.arange(100, dtype=np.uint64)
    emb, truth = EmbeddingSet.from_bits(ids, bits), GroundTruth(ids, ids // 2 * 2)
    lsh = {"d": D, "m": 36, "term_bits": 6, "selected_bits": list(range(36))}
    config = toy_config(lsh=lsh, search={"min_overlap": 5})

    labelled = []
    monkeypatch.setattr(pipeline, "train", lambda pairs, *_: labelled.extend(pairs))
    train_default_model(emb, truth, config)

    terms = derive_terms_matrix(emb.bits_matrix(), resolve_lsh_config(config, emb))
    a, b = np.triu_indices(len(ids), 1)
    hard = ((terms[a] == terms[b]).sum(axis=1) >= 5) & (a // 2 != b // 2)
    hard = set(zip(a[hard].tolist(), b[hard].tolist()))
    negatives = {(x, y) for x, y, label in labelled if label == 0}
    # half the negatives come from index collisions: every hard pair fits
    assert 0 < len(hard) < len(negatives) // 2
    assert hard <= negatives
