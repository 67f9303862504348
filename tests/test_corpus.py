"""Synthetic corpus generation and label sampling."""

import csv
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from neardup import (
    DataError,
    GroundTruth,
    SamplingError,
    SyntheticCorpusSpec,
    generate_corpus,
    generate_labels,
    load_corpus,
    read_labels_csv,
    save_corpus,
    write_labels_csv,
)
from neardup.corpus import read_pairs_csv


def hamming(emb, a, b):
    xa = emb.bits_matrix()[emb.rows_of([a])[0]]
    xb = emb.bits_matrix()[emb.rows_of([b])[0]]
    return int(np.sum(xa != xb))


def groups_of(truth):
    """(group id, its member ids ascending) of every group, from ids and group_of."""
    for g in np.unique(truth.group_of).tolist():
        yield g, sorted(truth.ids[truth.group_of == g].tolist())


def test_no_dupes_means_all_singletons():
    spec = SyntheticCorpusSpec(seed=1, n_base=50, d=64, dupes_per_base={0: 1.0})
    emb, truth = generate_corpus(spec)
    assert len(emb) == 50
    assert np.all(truth.group_sizes() == 1)
    assert np.array_equal(truth.ids, truth.group_of)  # every image is its own base


def test_zero_flips_are_exact_duplicates():
    spec = SyntheticCorpusSpec(
        seed=2, n_base=20, d=64, dupes_per_base={2: 1.0}, flip_min=0, flip_max=0
    )
    emb, truth = generate_corpus(spec)
    assert len(emb) == 60
    for g, members in groups_of(truth):
        assert members[0] == g  # group id is the base image id
        for m in members[1:]:
            assert hamming(emb, g, m) == 0


def test_flip_counts_respect_bounds():
    spec = SyntheticCorpusSpec(
        seed=3, n_base=40, d=128, dupes_per_base={1: 0.5, 3: 0.5}, flip_min=2, flip_max=9
    )
    emb, truth = generate_corpus(spec)
    for g, members in groups_of(truth):
        for m in members[1:]:
            assert 2 <= hamming(emb, g, m) <= 9


def test_ids_sequential_and_groups_contiguous():
    spec = SyntheticCorpusSpec(seed=4, n_base=30, d=64, dupes_per_base={0: 0.5, 2: 0.5})
    emb, truth = generate_corpus(spec)
    assert np.array_equal(emb.ids, np.arange(len(emb), dtype=np.uint64))
    for g, members in groups_of(truth):
        assert members == list(range(g, g + len(members)))


def test_corpus_deterministic_under_seed():
    spec = SyntheticCorpusSpec(seed=5, n_base=25, d=64)
    a, _ = generate_corpus(spec)
    b, _ = generate_corpus(spec)
    assert np.array_equal(a.bits_matrix(), b.bits_matrix())
    c, _ = generate_corpus(SyntheticCorpusSpec(seed=6, n_base=25, d=64))
    assert not np.array_equal(a.bits_matrix(), c.bits_matrix())


def test_dupe_histogram_follows_distribution():
    dist = {0: 0.55, 1: 0.25, 3: 0.15, 7: 0.05}
    spec = SyntheticCorpusSpec(
        seed=7, n_base=30000, d=16, dupes_per_base=dist, flip_min=0, flip_max=2
    )
    _, truth = generate_corpus(spec)
    sizes = truth.group_sizes()
    observed = np.array([int((sizes == k + 1).sum()) for k in dist])
    expected = np.array([v * spec.n_base for v in dist.values()])
    assert observed.sum() == spec.n_base
    _, p = stats.chisquare(observed, expected)
    assert p > 1e-3


def test_spec_validation():
    with pytest.raises(DataError):
        SyntheticCorpusSpec(n_base=0)
    with pytest.raises(DataError):
        SyntheticCorpusSpec(d=100)  # not a multiple of 8
    with pytest.raises(DataError):
        SyntheticCorpusSpec(flip_min=5, flip_max=3)
    with pytest.raises(DataError):
        SyntheticCorpusSpec(dupes_per_base={})
    with pytest.raises(DataError):
        SyntheticCorpusSpec(dupes_per_base={1: 0.0})
    spec = SyntheticCorpusSpec(dupes_per_base={0: 2, 1: 2})
    assert spec.dupes_per_base == {0: 0.5, 1: 0.5}  # weights normalize
    # at most 2^32 images, the dense ids an index holds; a count of weight 0 is never drawn
    SyntheticCorpusSpec(n_base=2, dupes_per_base={2**31 - 1: 1, 2**40: 0})
    with pytest.raises(DataError, match="n_base 2 with a dupes_per_base count of 2147483648"):
        SyntheticCorpusSpec(n_base=2, dupes_per_base={0: 1, 2**31: 1})
    # np.random.default_rng takes no negative seed
    with pytest.raises(DataError, match="seed must be >= 0, got -3"):
        SyntheticCorpusSpec(seed=-3)


def test_groundtruth_helpers():
    truth = GroundTruth(
        np.array([0, 1, 2, 3, 4], dtype=np.uint64),
        np.array([0, 0, 2, 2, 2], dtype=np.uint64),
    )
    assert truth.assignment() == {0: 0, 1: 0, 2: 2, 3: 2, 4: 2}
    assert sorted(truth.group_sizes()) == [2, 3]
    assert truth.within_group_pairs().tolist() == [[0, 1], [2, 3], [2, 4], [3, 4]]
    with pytest.raises(DataError):
        GroundTruth(np.array([0, 1], dtype=np.uint64), np.array([0], dtype=np.uint64))


def within_group_pairs_oracle(truth):
    """Groups by first appearance in ids, members by id, pairs in
    upper-triangle order, one dict and a loop."""
    groups = {}
    for i, g in zip(truth.ids.tolist(), truth.group_of.tolist()):
        groups.setdefault(g, []).append(i)
    pairs = []
    for members in groups.values():
        members = sorted(members)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pairs.append([members[i], members[j]])
    return pairs


def test_within_group_pairs_matches_loop_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(0, 30))
        ids = rng.permutation(1000)[:n].astype(np.uint64)
        truth = GroundTruth(ids, rng.integers(0, 6, size=n).astype(np.uint64))
        assert truth.within_group_pairs().tolist() == within_group_pairs_oracle(truth)
    _, truth = generate_corpus(SyntheticCorpusSpec(seed=8, n_base=300))
    assert truth.within_group_pairs().tolist() == within_group_pairs_oracle(truth)


@pytest.fixture
def small_corpus():
    spec = SyntheticCorpusSpec(
        seed=11, n_base=60, d=64, dupes_per_base={1: 0.6, 2: 0.4}, flip_min=1, flip_max=4
    )
    return generate_corpus(spec)


def test_generate_labels_counts_and_classes(small_corpus):
    emb, truth = small_corpus
    group = truth.assignment()
    labels = generate_labels(truth, emb, n_pos=20, n_neg=30, seed=1)
    assert labels.shape == (50, 3) and labels.dtype == np.uint64
    pos = [(a, b) for a, b, l in labels.tolist() if l == 1]
    neg = [(a, b) for a, b, l in labels.tolist() if l == 0]
    assert (len(pos), len(neg)) == (20, 30)
    assert all(group[a] == group[b] for a, b in pos)
    assert all(group[a] != group[b] for a, b in neg)
    assert len(set(pos)) == 20  # sampled without replacement
    assert len(set(neg)) == 30


def test_generate_labels_deterministic(small_corpus):
    emb, truth = small_corpus
    a = generate_labels(truth, emb, 10, 10, seed=3)
    assert np.array_equal(a, generate_labels(truth, emb, 10, 10, seed=3))
    assert not np.array_equal(a, generate_labels(truth, emb, 10, 10, seed=4))


def test_hard_negatives_collide_in_index(lsh64):
    # two groups two bits apart: every cross pair collides in the index
    from conftest import star_set, term_sets

    emb = star_set(64, 13, [(0, []), (1, [0]), (10, [1]), (11, [2])])
    truth = GroundTruth(
        np.array([0, 1, 10, 11], dtype=np.uint64),
        np.array([0, 0, 10, 10], dtype=np.uint64),
    )
    labels = generate_labels(
        truth, emb, n_pos=1, n_neg=3, seed=5,
        lsh_config=lsh64, hard_negative_fraction=1.0,
    )
    neg = [(a, b) for a, b, l in labels.tolist() if l == 0]
    assert len(neg) == 3
    sets = term_sets(emb, lsh64)
    assert all(len(sets[a] & sets[b]) >= 2 for a, b in neg)


@pytest.mark.parametrize("ungrouped", [1, 11])
def test_hard_negatives_refuse_an_image_without_a_group(lsh64, ungrouped):
    # the image colliding with every other has no ground-truth row: an
    # inner id once took its neighbour's group, the largest id ran off the end
    from conftest import star_set

    emb = star_set(64, 13, [(0, []), (1, [0]), (10, [1]), (11, [2])])
    keep = np.array([0, 1, 10, 11], dtype=np.uint64) != ungrouped
    truth = GroundTruth(np.array([0, 1, 10, 11], dtype=np.uint64)[keep], np.array([0, 0, 10, 10], dtype=np.uint64)[keep])
    with pytest.raises(DataError, match=f"image {ungrouped} has no ground-truth group"):
        generate_labels(truth, emb, n_pos=1, n_neg=3, seed=5, lsh_config=lsh64, hard_negative_fraction=1.0)


def test_generate_labels_shortfalls(small_corpus):
    emb, truth = small_corpus
    with pytest.raises(SamplingError):
        generate_labels(truth, emb, n_pos=10**6, n_neg=0)
    with pytest.raises(SamplingError):
        generate_labels(truth, emb, n_pos=-1, n_neg=0)
    singles = GroundTruth(
        np.array([0, 1], dtype=np.uint64), np.array([0, 1], dtype=np.uint64)
    )
    with pytest.raises(SamplingError):
        generate_labels(singles, emb, n_pos=1, n_neg=0)
    # two images, one group: no cross-group pair exists
    stuck = GroundTruth(
        np.array([0, 1], dtype=np.uint64), np.array([0, 0], dtype=np.uint64)
    )
    with pytest.raises(SamplingError):
        generate_labels(stuck, emb, n_pos=0, n_neg=5)


def test_labels_csv_round_trip(tmp_path):
    pairs = np.array([[3, 9, 1], [2, 14, 0]], dtype=np.uint64)
    plain = tmp_path / "plain.csv"
    write_labels_csv(pairs, plain)
    assert plain.read_bytes() == b"id_a,id_b,label\r\n3,9,1\r\n2,14,0\r\n"
    back = read_labels_csv(plain)
    assert back.dtype == np.uint64 and np.array_equal(back, pairs)

    tagged = tmp_path / "tagged.csv"
    tagged.write_text("id_a,id_b,label,source\n3,9,1,augmentation\n2,14,0,augmentation\n")
    assert np.array_equal(read_labels_csv(tagged), pairs)  # source column is carried, not parsed


def test_labels_csv_rejects_malformed(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,c\n1,2,1\n")
    with pytest.raises(DataError):
        read_labels_csv(bad_header)
    bad_label = tmp_path / "l.csv"
    bad_label.write_text("id_a,id_b,label\n1,2,7\n")
    with pytest.raises(DataError):
        read_labels_csv(bad_label)
    short_row = tmp_path / "s.csv"
    short_row.write_text("id_a,id_b,label\n1,2\n")
    with pytest.raises(DataError):
        read_labels_csv(short_row)
    # the first bad line is named, whatever is wrong with a later one
    first_bad = tmp_path / "f.csv"
    first_bad.write_text("id_a,id_b,label\n1,2,7\n1,x,1\n")
    with pytest.raises(DataError, match=f"^{first_bad}:2: label must be 0 or 1$"):
        read_labels_csv(first_bad)


def test_pairs_csv_reader(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("id_a,id_b,note\n1,2,x\n\n3,4\n")
    assert read_pairs_csv(path).tolist() == [[1, 2], [3, 4]]  # blank lines skipped, extra columns carried
    for text, message in (
        ("a,b\n1,2\n", f"^{path}: expected header id_a,id_b$"),
        ("id_a,id_b\n1,2\n\n5\n", f"^{path}:4: expected at least 2 columns$"),
        ("id_a,id_b\n1,2\n3,b\n", f"^{path}:3: invalid literal"),
    ):
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            read_pairs_csv(path)


def read_int_csv_oracle(path, names: tuple, check=None) -> list:
    """The per-row CSV reader: the int tuples of every non-blank row of a CSV
    whose header starts with names, each row's first len(names) fields, ids
    in [0, 2^64). check(row) may return what is wrong with a parsed row. The
    first bad line is a DataError naming <path>:<line>."""
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[: len(names)]] != list(names):
            raise DataError(f"{path}: expected header {','.join(names)}")
        for ln, row in enumerate(reader, 2):
            if not row:
                continue
            if len(row) < len(names):
                raise DataError(f"{path}:{ln}: expected at least {len(names)} columns")
            try:
                values = tuple(int(field) for field in row[: len(names)])
            except ValueError as exc:
                raise DataError(f"{path}:{ln}: {exc}") from None
            if not all(0 <= v < 2**64 for v in values):
                raise DataError(f"{path}:{ln}: out of range")
            problem = check(values) if check is not None else None
            if problem:
                raise DataError(f"{path}:{ln}: {problem}")
            out.append(values)
    return out


CSV_READERS = {
    ("id_a", "id_b"): (read_pairs_csv, None),
    ("id_a", "id_b", "label"): (read_labels_csv, lambda row: None if row[2] in (0, 1) else "label must be 0 or 1"),
}


@st.composite
def int_csvs(draw):
    """A pairs or labels CSV: mostly valid rows, some blank, short, with
    extra or quoted columns, a non-integer field, an id below 0 or at 2^64
    and more, or a label other than 0/1."""
    names = draw(st.sampled_from(sorted(CSV_READERS)))
    k = len(names)
    header = ",".join(names)
    lines = [draw(st.sampled_from([header, header + ",source", f" {header}", "a,b,c", ""]))]
    for _ in range(draw(st.integers(0, 8))):
        fields = [str(draw(st.integers(0, 2**64 - 1))) for _ in range(k - 1)] + [str(draw(st.integers(0, 1)))]
        at = draw(st.integers(0, k - 1))
        kinds = ["blank", "short", "extra", "quoted", "word", "negative", "huge", "label"]
        kind = draw(st.sampled_from(["ok"] * 5 + kinds))
        if kind == "blank":
            fields = []
        elif kind == "short":
            fields = fields[: draw(st.integers(1, k - 1))]
        elif kind == "extra":
            fields += draw(st.lists(st.sampled_from(["augmentation", "", "7", '"x,y"']), min_size=1, max_size=2))
        elif kind == "quoted":
            fields[at] = '"' + draw(st.sampled_from([fields[at], "1,2", "", f" {fields[at]} ", "3\n4"])) + '"'
        elif kind == "word":
            fields[at] = draw(st.sampled_from(["x", "1.5", "", "0x1", "1e3", "--1"]))
        elif kind == "negative":
            fields[at] = str(draw(st.integers(-(2**65), -1)))
        elif kind == "huge":
            fields[at] = str(draw(st.integers(2**64, 2**70)))
        elif kind == "label":
            fields[-1] = str(draw(st.integers(2, 2**64 - 1)))
        lines.append(",".join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return names, newline.join(lines) + newline


def _csv_outcome(read, path):
    try:
        return "ok", read(path)
    except DataError as exc:
        found = re.match(re.escape(str(path)) + r":(\d+): ", str(exc))
        return "error", int(found.group(1)) if found else None


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(int_csvs())
def test_csv_readers_match_per_row_oracle(tmp_path, case):
    names, text = case
    read, check = CSV_READERS[names]
    path = tmp_path / "pairs.csv"
    path.write_bytes(text.encode())
    want = _csv_outcome(lambda p: read_int_csv_oracle(p, names, check), path)
    got = _csv_outcome(read, path)
    assert got[0] == want[0]
    if want[0] == "error":
        assert got[1] == want[1]  # the same line, or both name none
    else:
        assert got[1].dtype == np.uint64 and got[1].shape == (len(want[1]), len(names))
        assert got[1].tolist() == [list(row) for row in want[1]]


def test_corpus_directory_round_trip(tmp_path, small_corpus):
    emb, truth = small_corpus
    spec = SyntheticCorpusSpec(seed=11, n_base=60, d=64)
    save_corpus(emb, truth, tmp_path / "corpus", spec=spec)
    assert (tmp_path / "corpus" / "spec.json").exists()
    emb2, truth2 = load_corpus(tmp_path / "corpus")
    assert np.array_equal(emb.ids, emb2.ids)
    assert np.array_equal(emb.bits_matrix(), emb2.bits_matrix())
    assert np.array_equal(truth.group_of, truth2.group_of)


def test_corpus_directory_rejects_mismatch(tmp_path, small_corpus):
    emb, truth = small_corpus
    save_corpus(emb, truth, tmp_path / "corpus")
    gt = tmp_path / "corpus" / "groundtruth.tsv"
    lines = gt.read_text().splitlines()
    gt.write_text("\n".join(lines[:-1]) + "\n")  # drop one image
    with pytest.raises(DataError):
        load_corpus(tmp_path / "corpus")


@pytest.mark.parametrize(
    "replace, message",
    [("1000000", "image 1000000 has a group but no embedding"), ("4", "image 3 has an embedding but no group")],
)
def test_corpus_directory_rejects_ids_without_a_partner(tmp_path, small_corpus, replace, message):
    # as many ground-truth rows as embeddings, but image 3's row names
    # another id: one the embeddings lack, or image 4 a second time
    emb, truth = small_corpus
    save_corpus(emb, truth, tmp_path / "corpus")
    gt = tmp_path / "corpus" / "groundtruth.tsv"
    lines = gt.read_text().splitlines()
    assert lines[3].startswith("3\t")
    lines[3] = replace + lines[3][1:]
    gt.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"groundtruth.tsv: {message}"):
        load_corpus(tmp_path / "corpus")
