"""Drive every subcommand through main(argv) on a small corpus."""

import fcntl
import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import neardup
from neardup import (
    ClusterStore,
    PipelineConfig,
    batch_search,
    generate_labels,
    load_corpus,
    read_clusters_tsv,
    save_model,
    train_default_model,
    unordered_pairs,
    write_labels_csv,
)
from neardup.cli import _read_hits_tsv, build_parser, main
from neardup.clustering import clusters_to_tsv
from neardup.index import load_index

from conftest import popcount_model


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus, config, labels and a trained model shared by the flow tests."""
    root = tmp_path_factory.mktemp("cli")
    rc = main(
        [
            "gen-corpus",
            "--out", str(root / "corpus"),
            "--n-base", "60",
            "--d", "64",
            "--seed", "9",
            "--flip-min", "1",
            "--flip-max", "4",
            "--dupes-dist", '{"0": 0.3, "1": 0.4, "2": 0.3}',
        ]
    )
    assert rc == 0

    config = {
        "lsh": {"d": 64, "m": 36, "term_bits": 6},
        "classifier": {
            "threshold": 0.5,
            "hidden": [16],
            "epochs": 10,
            "learning_rate": 0.01,
        },
    }
    (root / "config.json").write_text(json.dumps(config))

    embeddings, truth = load_corpus(root / "corpus")
    labels = generate_labels(truth, embeddings, n_pos=60, n_neg=240, seed=1)
    write_labels_csv(labels, root / "labels.csv")

    rc = main(
        [
            "train-classifier",
            "--labels", str(root / "labels.csv"),
            "--embeddings", str(root / "corpus" / "embeddings.ndem"),
            "--out", str(root / "model.ndml"),
            "--config", str(root / "config.json"),
            "--report", str(root / "train-report.json"),
        ]
    )
    assert rc == 0

    # artifacts several tests read; the flow tests rebuild them on purpose
    emb = str(root / "corpus" / "embeddings.ndem")
    assert main(["build-index", "--embeddings", emb, "--out", str(root / "corpus.ndix"),
                 "--config", str(root / "config.json")]) == 0
    assert main(["run", "--embeddings", emb, "--model", str(root / "model.ndml"),
                 "--config", str(root / "config.json"), "--out", str(root / "run-a.tsv")]) == 0
    return root


def emb_path(root):
    return str(root / "corpus" / "embeddings.ndem")


def test_gen_corpus_writes_a_loadable_corpus(workspace):
    embeddings, truth = load_corpus(workspace / "corpus")
    assert len(embeddings) == truth.ids.size
    assert (workspace / "corpus" / "spec.json").exists()


@pytest.mark.parametrize("k", [1, 3, 20])
def test_hits_tsv_round_trip_matches_in_memory_search(workspace, tmp_path, k):
    out = tmp_path / "hits.tsv"
    index_path = workspace / "corpus.ndix"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lsh": {"d": 64, "m": 36, "term_bits": 6}, "search": {"k": k}}))
    assert main(["search", "--index", str(index_path), "--queries", emb_path(workspace),
                 "--config", str(config), "--out", str(out)]) == 0
    embeddings, _ = load_corpus(workspace / "corpus")
    hits = batch_search(embeddings, load_index(index_path), k=k)
    read = _read_hits_tsv(out)
    assert hits.query.size and read.query.size == hits.query.size
    for got, want in zip(unordered_pairs(read), unordered_pairs(hits)):
        np.testing.assert_array_equal(got, want)
    for name in ("query", "hit", "overlap"):
        np.testing.assert_array_equal(getattr(read, name), getattr(hits, name))
    np.testing.assert_allclose(read.jaccard, hits.jaccard, rtol=0, atol=5e-7)


def test_train_report(workspace):
    report = json.loads((workspace / "train-report.json").read_text())
    assert report["pairs"] == 300
    assert len(report["epoch_losses"]) == 10
    assert 0.0 < report["validation"]["threshold"] < 1.0
    assert "threshold" not in report


def test_index_search_select_cluster_flow(workspace):
    root = workspace
    assert main(
        [
            "build-index",
            "--embeddings", emb_path(root),
            "--out", str(root / "corpus.ndix"),
            "--config", str(root / "config.json"),
        ]
    ) == 0
    load_index(root / "corpus.ndix")

    assert main(
        [
            "search",
            "--index", str(root / "corpus.ndix"),
            "--queries", emb_path(root),
            "--config", str(root / "config.json"),
            "--out", str(root / "hits.tsv"),
        ]
    ) == 0
    hits_lines = (root / "hits.tsv").read_text().splitlines()
    assert hits_lines
    q, m, overlap, jac = hits_lines[0].split("\t")
    assert int(overlap) >= 2
    assert 0.0 < float(jac) <= 1.0

    assert main(
        [
            "select",
            "--hits", str(root / "hits.tsv"),
            "--model", str(root / "model.ndml"),
            "--embeddings", emb_path(root),
            "--config", str(root / "config.json"),
            "--out", str(root / "edges.tsv"),
        ]
    ) == 0
    edge_lines = (root / "edges.tsv").read_text().splitlines()
    assert edge_lines
    assert len(edge_lines[0].split("\t")) == 3
    # each unordered pair once, as a < b, in (a, b) order
    pairs = [tuple(int(x) for x in line.split("\t")[:2]) for line in edge_lines]
    assert all(a < b for a, b in pairs)
    assert pairs == sorted(set(pairs))

    assert main(
        [
            "cluster",
            "--edges", str(root / "edges.tsv"),
            "--model", str(root / "model.ndml"),
            "--embeddings", emb_path(root),
            "--config", str(root / "config.json"),
            "--out", str(root / "clusters.tsv"),
        ]
    ) == 0
    # a partition of the embeddings: images no edge reaches are singletons
    clusters = read_clusters_tsv(root / "clusters.tsv")
    embeddings, _ = load_corpus(root / "corpus")
    assert np.array_equal(np.sort(clusters.image), np.sort(embeddings.ids))
    assert (clusters.sizes > 1).any()


def test_staged_flow_writes_the_run_cluster_file(tmp_path):
    emb = str(tmp_path / "corpus" / "embeddings.ndem")
    assert main(["gen-corpus", "--out", str(tmp_path / "corpus"), "--n-base", "200", "--d", "64",
                 "--seed", "9", "--flip-max", "4"]) == 0
    # each setting moves this corpus's clusters and differs from the removed
    # flags' defaults (k 20, min-overlap 2, seed 42)
    config = {"seed": 7, "lsh": {"d": 64, "m": 36, "term_bits": 6},
              "search": {"k": 1, "min_overlap": 3}, "classifier": {"threshold": 0.6}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    # integer weights: every score is exact in any call, so a rescored pivot
    # pair scores what selection scored
    save_model(popcount_model(64, theta=4.5, alpha=1.0), tmp_path / "model.ndml")
    common = ["--config", str(tmp_path / "config.json")]
    scored = ["--model", str(tmp_path / "model.ndml"), "--embeddings", emb, *common]
    out = {name: str(tmp_path / name) for name in ("index", "hits", "edges", "staged", "run")}
    assert main(["build-index", "--embeddings", emb, "--out", out["index"], *common]) == 0
    assert main(["search", "--index", out["index"], "--queries", emb, "--out", out["hits"], *common]) == 0
    assert main(["select", "--hits", out["hits"], "--out", out["edges"], *scored]) == 0
    assert main(["cluster", "--edges", out["edges"], "--out", out["staged"], *scored]) == 0
    assert main(["run", "--out", out["run"], *scored]) == 0
    assert (tmp_path / "staged").read_bytes() == (tmp_path / "run").read_bytes()
    table = read_clusters_tsv(tmp_path / "staged")
    assert table.image.size == 433 and (table.sizes > 1).any() and (table.sizes == 1).any()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("search", "--k", "5"),
        ("search", "--min-overlap", "3"),
        ("select", "--threshold", "0.5"),
        ("select", "--k-aug", "2"),
        ("cluster", "--threshold", "0.5"),
        ("cluster", "--seed", "7"),
        ("train-classifier", "--epochs", "2"),
        ("train-classifier", "--seed", "7"),
    ],
)
def test_settings_are_not_stage_flags(command, flag, value, capsys):
    # the config is the one source of these settings
    required = {
        "search": ["--index", "i", "--queries", "q"],
        "select": ["--hits", "h", "--model", "m", "--embeddings", "e"],
        "cluster": ["--edges", "e", "--model", "m", "--embeddings", "e"],
        "train-classifier": ["--labels", "l", "--embeddings", "e"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, "--out", "o", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_readme_command_lines_parse():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = [line.strip() for block in blocks for line in block.replace("\\\n", " ").split("\n")]
    commands = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("neardup ")]
    staged = {"build-index", "search", "select", "cluster"}
    assert staged <= {argv[0] for argv in commands if "--config" in argv}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_run_deterministic_and_reported(workspace):
    root = workspace
    argv = [
        "run",
        "--embeddings", emb_path(root),
        "--model", str(root / "model.ndml"),
        "--config", str(root / "config.json"),
        "--out", str(root / "run-a.tsv"),
        "--report", str(root / "run-report.json"),
    ]
    assert main(argv) == 0
    argv[argv.index(str(root / "run-a.tsv"))] = str(root / "run-b.tsv")
    assert main(argv) == 0
    assert (root / "run-a.tsv").read_bytes() == (root / "run-b.tsv").read_bytes()

    report = json.loads((root / "run-report.json").read_text())
    embeddings, _ = load_corpus(root / "corpus")
    assert report["images"] == len(embeddings)
    assert report["clusters"] >= 1
    assert set(report["timings"]) == {"index", "search", "select", "closure", "cut"}


def test_head_only_index_and_head_select(workspace):
    root = workspace
    assert main(
        [
            "build-index",
            "--embeddings", emb_path(root),
            "--out", str(root / "heads.ndix"),
            "--config", str(root / "config.json"),
            "--heads", str(root / "run-a.tsv"),
        ]
    ) == 0
    head_index = load_index(root / "heads.ndix")
    n_heads = len(read_clusters_tsv(root / "run-a.tsv"))
    assert len(head_index.dictionary) == n_heads

    assert main(
        [
            "search",
            "--index", str(root / "heads.ndix"),
            "--queries", emb_path(root),
            "--config", str(root / "config.json"),
            "--out", str(root / "head-hits.tsv"),
        ]
    ) == 0
    assert main(
        [
            "select",
            "--hits", str(root / "head-hits.tsv"),
            "--model", str(root / "model.ndml"),
            "--embeddings", emb_path(root),
            "--clusters", str(root / "run-a.tsv"),
            "--config", str(root / "config.json"),
            "--labels-out", str(root / "aug-labels.csv"),
            "--out", str(root / "matches.tsv"),
        ]
    ) == 0
    for line in (root / "matches.tsv").read_text().splitlines():
        parts = line.split("\t")
        assert len(parts) == 4
        float(parts[3])
    assert (root / "aug-labels.csv").read_text().splitlines()[0] == "id_a,id_b,label"


def test_classify_scores_pairs(workspace):
    root = workspace
    embeddings, truth = load_corpus(root / "corpus")
    ids = [int(i) for i in embeddings.ids[:4]]
    (root / "pairs.csv").write_text(
        "id_a,id_b\n" + f"{ids[0]},{ids[1]}\n{ids[2]},{ids[3]}\n"
    )
    assert main(
        [
            "classify",
            "--model", str(root / "model.ndml"),
            "--embeddings", emb_path(root),
            "--pairs", str(root / "pairs.csv"),
            "--out", str(root / "scores.csv"),
        ]
    ) == 0
    lines = (root / "scores.csv").read_text().splitlines()
    assert lines[0] == "id_a,id_b,score"
    assert lines[1].startswith(f"{ids[0]},{ids[1]},")
    score = float(lines[1].split(",")[2])
    assert 0.0 <= score <= 1.0


def test_incremental_flow(workspace, tmp_path):
    root = workspace
    embeddings, _ = load_corpus(root / "corpus")
    half = len(embeddings) // 2
    first = embeddings.subset([int(i) for i in embeddings.ids[:half]])
    second = embeddings.subset([int(i) for i in embeddings.ids[half:]])
    first.save(tmp_path / "batch1.ndem")
    second.save(tmp_path / "batch2.ndem")

    base = [
        "incremental",
        "--store", str(tmp_path / "store"),
        "--model", str(root / "model.ndml"),
        "--config", str(root / "config.json"),
    ]
    assert main(base + ["--new", str(tmp_path / "batch1.ndem")]) == 0
    assert (tmp_path / "store" / "manifest.json").exists()

    assert main(
        base
        + ["--new", str(tmp_path / "batch2.ndem"), "--assignments", str(tmp_path / "a2.tsv")]
    ) == 0
    rows = [l.split("\t") for l in (tmp_path / "a2.tsv").read_text().splitlines()]
    assert len(rows) == len(second)
    assert all(p in ("nvo", "nvn_mapped", "nvn_new") for _, _, p in rows)

    # re-ingesting the same batch changes nothing
    assert main(
        base
        + ["--new", str(tmp_path / "batch2.ndem"), "--assignments", str(tmp_path / "a3.tsv")]
    ) == 0
    assert all(
        line.endswith("existing") for line in (tmp_path / "a3.tsv").read_text().splitlines()
    )
    manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
    assert manifest["batch_id"] == 2


def test_incremental_clusters_out_and_writer_lock(workspace, tmp_path, capsys):
    embeddings, _ = load_corpus(workspace / "corpus")
    embeddings.save(tmp_path / "batch.ndem")
    command = [
        "incremental",
        "--store", str(tmp_path / "store"),
        "--new", str(tmp_path / "batch.ndem"),
        "--model", str(workspace / "model.ndml"),
        "--config", str(workspace / "config.json"),
        "--clusters-out", str(tmp_path / "clusters.tsv"),
    ]
    (tmp_path / "store").mkdir()
    fd = os.open(tmp_path / "store" / "lock", os.O_RDWR | os.O_CREAT)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert main(command) == 1
        err = capsys.readouterr().err
        assert "error in incremental:" in err and "lock" in err and "Traceback" not in err
        assert not (tmp_path / "store" / "manifest.json").exists()
    finally:
        os.close(fd)
    assert main(command) == 0
    store = ClusterStore.open(tmp_path / "store")
    assert (tmp_path / "clusters.tsv").read_bytes() == clusters_to_tsv(store.table).encode()


def test_incremental_empty_first_batch_is_a_noop(workspace, tmp_path, capsys):
    embeddings, _ = load_corpus(workspace / "corpus")
    embeddings.subset([]).save(tmp_path / "empty.ndem")
    assert main([
        "incremental",
        "--store", str(tmp_path / "store"),
        "--new", str(tmp_path / "empty.ndem"),
        "--model", str(workspace / "model.ndml"),
        "--config", str(workspace / "config.json"),
        "--clusters-out", str(tmp_path / "clusters.tsv"),
    ]) == 0
    assert "empty batch; store now 0 images in 0 clusters" in capsys.readouterr().out
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == ["lock"]  # no manifest, no segment
    assert (tmp_path / "clusters.tsv").read_text() == ""


def test_evaluate_reports_metrics(workspace, caplog):
    root = workspace
    with caplog.at_level("INFO", logger="neardup"):
        assert main(
            [
                "-v",
                "evaluate",
                "--corpus", str(root / "corpus"),
                "--config", str(root / "config.json"),
                "--model", str(root / "model.ndml"),
                "--distance", "4",
                "--report", str(root / "eval.json"),
            ]
        ) == 0
    report = json.loads((root / "eval.json").read_text())
    for key in ("pairwise_precision", "pairwise_recall", "rand_index", "purity"):
        assert 0.0 <= report[key] <= 1.0
    assert report["recall_at_distance"]["distance"] == 4
    assert report["training"] is None
    # the run's five stages, then recall@distance, each timed and logged once
    stages = ["index", "search", "select", "closure", "cut", "recall"]
    assert set(report["timings"]) == set(stages)
    assert [r.getMessage().split(" ")[0] for r in caplog.records] == stages


def test_evaluate_trains_the_model_its_saved_file_holds(workspace, tmp_path):
    # a trained model scores as its file does, so evaluate without --model
    # reports what evaluate with that model's saved file reports
    embeddings, truth = load_corpus(workspace / "corpus")
    config = PipelineConfig.load(workspace / "config.json")
    save_model(train_default_model(embeddings, truth, config)[0].model, tmp_path / "model.ndml")
    reports = []
    for model in ([], ["--model", str(tmp_path / "model.ndml")]):
        out = tmp_path / f"eval-{len(reports)}.json"
        argv = ["evaluate", "--corpus", str(workspace / "corpus"), "--config", str(workspace / "config.json")]
        assert main(argv + model + ["--report", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    trained, loaded = reports
    assert trained["training"] is not None and loaded["training"] is None
    drop = ("training", "timings")
    assert {k: v for k, v in trained.items() if k not in drop} == {k: v for k, v in loaded.items() if k not in drop}


def test_train_report_without_a_validation_split(workspace, tmp_path, capsys):
    # four labelled pairs leave no split, so there is no chosen cut to report
    embeddings, truth = load_corpus(workspace / "corpus")
    labels = generate_labels(truth, embeddings, n_pos=2, n_neg=2, seed=1)
    write_labels_csv(labels, tmp_path / "labels.csv")
    assert main(["train-classifier", "--labels", str(tmp_path / "labels.csv"), "--embeddings", emb_path(workspace),
                 "--config", str(workspace / "config.json"), "--out", str(tmp_path / "model.ndml"),
                 "--report", str(tmp_path / "report.json")]) == 0
    assert "no validation threshold" in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["validation"] == {} and "threshold" not in report


@pytest.mark.parametrize(
    "command, config, flags, message",
    [
        ("gen-corpus", None, ["--seed", "-3"], "seed must be >= 0, got -3"),
        ("evaluate", {"seed": -1}, [], "seed must be >= 0, got -1"),
        ("evaluate", {}, ["--distance", "-1"], "distance must be >= 0, got -1"),
        ("incremental", {"augmentation": {"k_aug": 2**70}}, [], "augmentation.k_aug must lie in [-2^63, 2^63)"),
    ],
)
def test_out_of_range_integers_exit_one(workspace, tmp_path, capsys, command, config, flags, message):
    argv = {
        "gen-corpus": ["--out", str(tmp_path / "out")],
        "evaluate": ["--corpus", str(workspace / "corpus"), "--model", str(workspace / "model.ndml")],
        "incremental": ["--store", str(tmp_path / "out"), "--new", emb_path(workspace),
                        "--model", str(workspace / "model.ndml")],
    }[command]
    if config is not None:  # the workspace config with these top-level keys replaced
        settings = json.loads((workspace / "config.json").read_text())
        (tmp_path / "config.json").write_text(json.dumps({**settings, **config}))
        argv += ["--config", str(tmp_path / "config.json")]
    assert main([command, *argv, *flags]) == 1
    err = capsys.readouterr().err
    assert f"error in {command}:" in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()  # nothing written, no store made


def test_errors_exit_one_with_stage_name(workspace, tmp_path, capsys):
    assert main(["search", "--index", str(tmp_path / "no.ndix"), "--queries", emb_path(workspace), "--out", str(tmp_path / "o")]) == 1
    assert "error in search" in capsys.readouterr().err

    bad = tmp_path / "bad.tsv"
    bad.write_text("not\tenough\n")
    assert main(
        [
            "select",
            "--hits", str(bad),
            "--model", str(workspace / "model.ndml"),
            "--embeddings", emb_path(workspace),
            "--out", str(tmp_path / "o"),
        ]
    ) == 1
    assert "error in select" in capsys.readouterr().err

    assert main(["gen-corpus", "--out", str(tmp_path / "c"), "--dupes-dist", "{bad"]) == 1
    assert "error in gen-corpus" in capsys.readouterr().err


def _non_numeric_run(workspace, tmp_path, capsys, command, flag, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    common = ["--embeddings", emb_path(workspace), "--out", str(tmp_path / "o")]
    model = ["--model", str(workspace / "model.ndml")] if command != "train-classifier" else []
    assert main([command, flag, str(bad), *model, *common]) == 1
    err = capsys.readouterr().err
    assert f"error in {command}:" in err and f"{bad}:2:" in err
    assert "Traceback" not in err


def test_select_hits_with_non_numeric_field_exit_one(workspace, tmp_path, capsys):
    _non_numeric_run(workspace, tmp_path, capsys, "select", "--hits", "hits.tsv",
                     "1\t2\t3\t0.5\n1\tx\t2\t0.5\n")


def test_cluster_edges_with_non_numeric_field_exit_one(workspace, tmp_path, capsys):
    _non_numeric_run(workspace, tmp_path, capsys, "cluster", "--edges", "edges.tsv",
                     "1\t2\t0.9\n3\tfour\t0.9\n")


def test_classify_pairs_with_non_numeric_field_exit_one(workspace, tmp_path, capsys):
    _non_numeric_run(workspace, tmp_path, capsys, "classify", "--pairs", "pairs.csv",
                     "id_a,id_b\n1,b\n")


def test_train_labels_with_non_numeric_field_exit_one(workspace, tmp_path, capsys):
    _non_numeric_run(workspace, tmp_path, capsys, "train-classifier", "--labels", "labels.csv",
                     "id_a,id_b,label\n1,2,yes\n")


@pytest.mark.parametrize("row", ["0\tx", "0"])
def test_evaluate_with_a_malformed_ground_truth_row_exit_one(workspace, tmp_path, capsys, row):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "embeddings.ndem").write_bytes((workspace / "corpus" / "embeddings.ndem").read_bytes())
    lines = (workspace / "corpus" / "groundtruth.tsv").read_text().splitlines()
    path = corpus / "groundtruth.tsv"
    path.write_text("\n".join([lines[0], row] + lines[2:]) + "\n")
    argv = ["evaluate", "--corpus", str(corpus), "--config", str(workspace / "config.json"),
            "--model", str(workspace / "model.ndml")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error in evaluate: {path}:2:" in err
    assert "Traceback" not in err


def test_select_clusters_with_an_image_on_two_rows_exit_one(workspace, tmp_path, capsys):
    (tmp_path / "hits.tsv").write_text("")
    clusters = tmp_path / "clusters.tsv"
    clusters.write_text("1\t1\thead\t\n5\t1\tmember\t0.9\n5\t5\thead\t\n")
    argv = ["select", "--hits", str(tmp_path / "hits.tsv"), "--model", str(workspace / "model.ndml"),
            "--embeddings", emb_path(workspace), "--clusters", str(clusters), "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error in select: {clusters}:3: image 5 already in cluster 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def _bad_byte_argv(root, tmp_path, flag):
    """argv whose file at flag holds a byte that is not UTF-8, and that file."""
    emb, model = emb_path(root), str(root / "model.ndml")
    (tmp_path / "hits.tsv").write_text("")
    out = ["--out", str(tmp_path / "o")]
    bad = tmp_path / "bad"
    if flag == "groundtruth.tsv":
        bad.mkdir()
        (bad / "embeddings.ndem").write_bytes((root / "corpus" / "embeddings.ndem").read_bytes())
        (bad / "groundtruth.tsv").write_bytes(b"0\t0\n1\t\xff\n")
        return ["evaluate", "--corpus", str(bad), "--model", model], bad / "groundtruth.tsv"
    bad.write_bytes({
        "--config": b"\xff\xfe{}",
        "--clusters": b"1\t1\thead\t\n\xff\t1\tmember\t0.5\n",
        "--heads": b"1\t1\thead\t\n\xff\t1\tmember\t0.5\n",
        "--hits": b"1\t2\t3\t0.5\n1\t\xff\t3\t0.5\n",
        "--edges": b"1\t2\t0.9\n\xff\t3\t0.9\n",
        "--labels": b"id_a,id_b,label\n1,2,1\n\xff,3,0\n",
        "--pairs": b"id_a,id_b\n1,2\n\xe9,3\n",
    }[flag])
    argv = {
        "--config": ["evaluate", "--corpus", str(root / "corpus"), "--model", model],
        "--clusters": ["select", "--hits", str(tmp_path / "hits.tsv"), "--model", model, "--embeddings", emb, *out],
        "--heads": ["build-index", "--embeddings", emb, "--config", str(root / "config.json"), *out],
        "--hits": ["select", "--model", model, "--embeddings", emb, *out],
        "--edges": ["cluster", "--model", model, "--embeddings", emb, *out],
        "--labels": ["train-classifier", "--embeddings", emb, *out],
        "--pairs": ["classify", "--model", model, "--embeddings", emb, *out],
    }[flag]
    return [*argv, flag, str(bad)], bad


@pytest.mark.parametrize(
    "flag", ["--config", "--clusters", "--heads", "--hits", "--edges", "--labels", "--pairs", "groundtruth.tsv"]
)
def test_text_input_that_is_not_utf8_exits_one_naming_the_file(workspace, tmp_path, capsys, flag):
    argv, bad = _bad_byte_argv(workspace, tmp_path, flag)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error in {argv[0]}: {bad}: " in err and "can't decode byte" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "dist, message",
    [
        ('{"1": null}', "--dupes-dist must be a JSON object of count: weight"),
        ('{"1": [1]}', "--dupes-dist must be a JSON object of count: weight"),
        ('{"1": "nan"}', "dupes_per_base must map counts >= 0 to finite weights >= 0"),
        ('{"1": 1e999}', "dupes_per_base must map counts >= 0 to finite weights >= 0"),
    ],
)
def test_gen_corpus_dupes_dist_with_a_non_number_weight_exits_one(tmp_path, capsys, dist, message):
    assert main(["gen-corpus", "--out", str(tmp_path / "c"), "--dupes-dist", dist]) == 1
    err = capsys.readouterr().err
    assert f"error in gen-corpus: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "c").exists()


def test_truncated_model_exits_one_without_traceback(workspace, tmp_path, capsys):
    blob = (workspace / "model.ndml").read_bytes()
    cut = tmp_path / "cut.ndml"
    cut.write_bytes(blob[: len(blob) // 2])
    argv = ["run", "--embeddings", emb_path(workspace), "--model", str(cut),
            "--config", str(workspace / "config.json"), "--out", str(tmp_path / "o.tsv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error in run:" in err and "truncated" in err
    assert not (tmp_path / "o.tsv").exists()


# main() in a child process whose address space is capped at 4 GiB, in the
# child only: an allocation the sizes below imply fails there at once,
# never on the machine
CAPPED_MAIN = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**32, 2**32)); "
    "from neardup.cli import main; sys.exit(main(sys.argv[1:]))"
)


# Sizes no file format can hold are refused before anything is allocated.
# Sizes under those bounds fail in the allocation itself, which main reports.
@pytest.mark.parametrize(
    "command, field",
    [
        ("gen-corpus", "dupes_per_base count of 100000000000"),
        ("evaluate", "classifier.hidden width 100000000000"),
        ("gen-corpus", "Unable to allocate 16.0 GiB"),
        ("evaluate", "Unable to allocate 2.00 TiB"),
    ],
)
def test_sizes_no_file_format_can_hold_exit_one_before_allocating(workspace, tmp_path, command, field):
    allocating = field.startswith("Unable to allocate")
    hidden = 2**32 - 1 if allocating else 100000000000
    lsh = json.loads((workspace / "config.json").read_text())["lsh"]
    (tmp_path / "wide.json").write_text(json.dumps({"lsh": lsh, "classifier": {"hidden": [hidden]}}))
    spec = ["--n-base", "2147483648", "--dupes-dist", '{"0": 1}'] if allocating else [
        "--n-base", "5", "--dupes-dist", '{"100000000000": 1}']
    argv = {
        "gen-corpus": ["gen-corpus", "--out", str(tmp_path / "c"), *spec],
        "evaluate": ["evaluate", "--corpus", str(workspace / "corpus"), "--config", str(tmp_path / "wide.json")],
    }[command]
    src = os.path.dirname(os.path.dirname(neardup.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 1, out.stderr
    assert f"error in {command}: " in out.stderr and field in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "c").exists()
