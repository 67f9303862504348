import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neardup import (
    DataError,
    EmbeddingSet,
    LshConfig,
    batch_search,
    build_index,
    select_bits,
)
from neardup.embeddings import _POPCOUNT, derive_terms_matrix, hamming_distance_matrix
from neardup.errors import DimensionError


# -- oracles ------------------------------------------------------------------


def sign_oracle(vector):
    # componentwise rule, no numpy
    return [1 if x >= 0 else 0 for x in vector]


def variance_rank_oracle(sample, m):
    # two-pass variance in exact rational arithmetic (bit columns with k and
    # n-k ones tie exactly and float paths would order them arbitrarily)
    from fractions import Fraction

    n, d = sample.shape
    keyed = []
    for j in range(d):
        col = [int(x) for x in sample[:, j]]
        mean = Fraction(sum(col), n)
        var = sum((Fraction(x) - mean) ** 2 for x in col) / n
        keyed.append((-var, j))
    keyed.sort()
    return [j for _, j in keyed[:m]]


def chunk_oracle(bits, selected, g):
    # string parsing, MSB-first within each group
    picked = "".join(str(bits[i]) for i in selected)
    terms = set()
    for group in range(len(selected) // g):
        value = int(picked[group * g : (group + 1) * g], 2)
        terms.add((group << g) | value)
    return terms


def overlap_hit(config, a_bits, b_bits):
    """(overlap, jaccard) of b's search hit on a, (0, 0.0) when they share no term."""
    index = build_index(EmbeddingSet.from_bits(np.array([0], dtype=np.uint64), a_bits[np.newaxis]), config)
    query = EmbeddingSet.from_bits(np.array([1], dtype=np.uint64), b_bits[np.newaxis])
    hits = batch_search(query, index, k=1, min_overlap=1)[1]
    return (hits[0].overlap, hits[0].jaccard) if hits else (0, 0.0)


# -- binarization -------------------------------------------------------------


def sign_bits(vector, image_id=0) -> EmbeddingSet:
    """One vector's sign bits, as the embedding step makes them."""
    vec = np.asarray(vector, dtype=np.float64)
    return EmbeddingSet.from_bits([image_id], (vec >= 0)[np.newaxis])


def test_binarize_sign_rule_frozen():
    emb = sign_bits([0.3, -0.2, 0.0, -0.7, 1.0, 2.0, -3.0, 0.0], image_id=7)
    assert emb.bits_matrix()[0].tolist() == [1, 0, 1, 0, 1, 1, 0, 1]  # zero maps to 1
    assert emb.ids.tolist() == [7]
    assert emb.d == 8 and emb.packed.tolist() == [[0b10101101]]


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=300).map(
        lambda v: v + [0.0] * (-len(v) % 8)  # d is a multiple of 8
    )
)
def test_binarize_matches_componentwise_oracle(vec):
    assert sign_bits(vec).bits_matrix()[0].tolist() == sign_oracle(vec)


def test_binarize_rejects_bad_input():
    with pytest.raises(DimensionError):
        sign_bits([1.0] * 12)  # d must be a multiple of 8
    with pytest.raises(DimensionError):
        EmbeddingSet(8, [1, 2], np.zeros((1, 1), dtype=np.uint8))  # a row per id
    with pytest.raises(DataError):
        sign_bits([1.0] * 8, image_id=2**64 - 1)


# -- bit selection ------------------------------------------------------------


def test_select_bits_matches_variance_oracle(rng):
    sample = (rng.random((500, 48)) < rng.random(48)).astype(np.uint8)
    for m in (1, 12, 48):
        assert select_bits(sample, 48, m) == variance_rank_oracle(sample, m)


def test_select_bits_tie_break_is_lower_index():
    # columns 0 and 2 have identical counts; 1 is constant
    sample = np.array([[1, 0, 0], [0, 1, 1], [1, 0, 0], [0, 1, 1]], dtype=np.uint8)
    sample = np.hstack([sample, np.zeros((4, 5), dtype=np.uint8)])  # pad d to 8
    assert select_bits(sample, 8, 2) == [0, 1]


def test_select_bits_rejects_empty_sample():
    from neardup.errors import SelectionError

    with pytest.raises(SelectionError):
        select_bits(np.zeros((0, 8), dtype=np.uint8), 8, 4)
    with pytest.raises(SelectionError):
        select_bits(np.zeros((3, 8), dtype=np.uint8), 8, 9)


# -- term derivation ----------------------------------------------------------


def test_derive_terms_hand_example():
    # 3 groups of 4 over positions 0..11; trailing unselected bits must not matter
    config = LshConfig(d=16, selected_bits=tuple(range(12)), term_bits=4)
    bits = np.array([1, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1], dtype=np.uint8)
    terms = derive_terms_matrix(bits[np.newaxis, :], config)[0]
    # groups: 1010 -> 10, 0001 -> (1<<4)|1 = 17, 1100 -> (2<<4)|12 = 44
    assert terms.tolist() == [10, 17, 44]
    assert set(terms.tolist()) == chunk_oracle(bits, config.selected_bits, 4)


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 4, 13, 24]))
def test_derive_terms_matches_chunk_oracle(seed, g):
    rng = np.random.default_rng(seed)
    d = 64
    selected = tuple(int(i) for i in rng.permutation(d)[: g * max(2, 32 // g)])
    config = LshConfig(d=d, selected_bits=selected, term_bits=g)
    bits = rng.integers(0, 2, size=(3, d), dtype=np.uint8)
    got = derive_terms_matrix(bits, config)
    assert got.dtype == np.uint32
    for row, terms in zip(bits, got):
        # column j holds group j, whose tag sorts it after every earlier group
        assert terms.tolist() == sorted(chunk_oracle(row, selected, g))


def test_term_count_and_group_disjointness(lsh64, rng):
    bits = rng.integers(0, 2, size=(20, 64), dtype=np.uint8)
    terms = derive_terms_matrix(bits, lsh64)
    assert terms.shape == (20, 6)
    # group tag occupies the high bits: terms of group j live in [j<<g, (j+1)<<g)
    for j in range(6):
        assert ((terms[:, j] >> 6) == j).all()
    # each image carries exactly term_count distinct terms
    for row in terms:
        assert len(set(int(t) for t in row)) == 6


def test_single_flip_degrades_overlap_by_one(lsh64, rng):
    bits = rng.integers(0, 2, size=64, dtype=np.uint8)
    flipped = bits.copy()
    flipped[13] ^= 1  # inside group 2 of the selected range
    overlap, jac = overlap_hit(lsh64, bits, flipped)
    assert overlap == 5
    assert jac == pytest.approx(5 / 7)
    # a flip outside the selected range changes nothing
    outside = bits.copy()
    outside[50] ^= 1
    assert overlap_hit(lsh64, bits, outside) == (6, 1.0)


def test_jaccard_overlap_frozen_values():
    config = LshConfig(d=144, selected_bits=tuple(range(144)), term_bits=12)
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=144, dtype=np.uint8)
    assert overlap_hit(config, bits, bits.copy()) == (12, 1.0)  # identical: all 12 terms shared
    assert overlap_hit(config, bits, 1 - bits) == (0, 0.0)
    # flip one bit in each of 6 groups: overlap 6, jaccard 6/(24-6)
    half = bits.copy()
    for group in range(6):
        half[group * 12] ^= 1
    assert overlap_hit(config, bits, half) == (6, pytest.approx(1 / 3))


def test_overlap_tracks_hamming_distance(rng):
    # overlap should correlate strongly (negatively) with hamming distance
    from scipy.stats import spearmanr

    config = LshConfig(d=256, selected_bits=tuple(range(144)), term_bits=12)
    base = rng.integers(0, 2, size=256, dtype=np.uint8)
    distances, others = [], []
    for i in range(2000):
        k = int(rng.integers(0, 80))
        positions = rng.choice(256, size=k, replace=False) if k else []
        other = base.copy()
        if k:
            other[positions] ^= 1
        distances.append(k)
        others.append(other)
    terms = derive_terms_matrix(np.stack([base] + others), config)
    # group j always lands in column j, so shared terms are equal columns
    overlaps = (terms[1:] == terms[0]).sum(axis=1)
    rho, _ = spearmanr(distances, overlaps)
    assert rho < -0.8


def test_lsh_config_validation():
    with pytest.raises(DimensionError):
        LshConfig(d=12, selected_bits=tuple(range(6)), term_bits=3)  # d not multiple of 8
    with pytest.raises(DimensionError):
        LshConfig(d=16, selected_bits=(0, 1, 2), term_bits=2)  # m % g != 0
    with pytest.raises(DimensionError):
        LshConfig(d=16, selected_bits=(0, 0, 1, 2), term_bits=2)  # duplicate
    with pytest.raises(DimensionError):
        LshConfig(d=16, selected_bits=(0, 1, 2, 16), term_bits=2)  # out of range
    with pytest.raises(DimensionError):
        LshConfig(d=16, selected_bits=tuple(range(16)), term_bits=0)
    config = LshConfig(d=256, selected_bits=tuple(range(144)), term_bits=12)
    assert config.m == 144
    assert config.term_count == 12


# -- embedding sets and the embedding file ------------------------------------


def test_embedding_set_basics(rng):
    bits = rng.integers(0, 2, size=(5, 16), dtype=np.uint8)
    ids = np.array([3, 9, 4, 100, 7], dtype=np.uint64)
    es = EmbeddingSet.from_bits(ids, bits)
    assert len(es) == 5
    assert es.rows_of([100]).tolist() == [3]
    np.testing.assert_array_equal(es.bits_matrix(), bits)
    sub = es.subset([7, 3])
    assert sub.ids.tolist() == [7, 3]
    both = sub.concat(es.subset([9]))
    assert both.ids.tolist() == [7, 3, 9]
    # rows_of: the sorted lookup agrees with a dict of rows on any order, repeats included
    row_of = {int(v): i for i, v in enumerate(es.ids)}
    want = [3, 100, 3, 7, 4, 9]
    assert es.rows_of(want).tolist() == [row_of[i] for i in want]
    assert es.rows_of(np.array(want, dtype=np.uint64)).dtype == np.intp
    assert es.rows_of([]).tolist() == []
    for bad in ([3, 12345], [2**64 - 1], [-1], [101]):
        with pytest.raises(DataError):
            es.rows_of(bad)
    # contains: the same lookup as a mask, against the set of ids
    probe = np.array([3, 12345, 100, 3, 0, 2**64 - 2, 101], dtype=np.uint64)
    assert es.contains(probe).tolist() == [int(i) in row_of for i in probe]
    assert es.contains(np.zeros(0, dtype=np.uint64)).tolist() == []
    with pytest.raises(DataError):
        EmbeddingSet.from_bits(np.array([1, 1], dtype=np.uint64), bits[:2])


def test_terms_kept_per_config(rng):
    bits = rng.integers(0, 2, size=(7, 64), dtype=np.uint8)
    es = EmbeddingSet.from_bits(np.arange(7, dtype=np.uint64), bits)
    four = LshConfig(d=64, selected_bits=tuple(range(36)), term_bits=4)
    six = LshConfig(d=64, selected_bits=tuple(range(36)), term_bits=6)
    terms = es.terms(four)
    assert np.array_equal(terms, derive_terms_matrix(bits, four))
    assert not terms.flags.writeable  # shared by every caller
    assert es.terms(LshConfig(d=64, selected_bits=tuple(range(36)), term_bits=4)) is terms
    assert np.array_equal(es.terms(six), derive_terms_matrix(bits, six))
    assert np.array_equal(es.terms(four), terms)


def test_packed_bit_zero_is_msb_of_byte_zero():
    bits = np.zeros(16, dtype=np.uint8)
    bits[0] = 1
    es = EmbeddingSet.from_bits(np.array([0], dtype=np.uint64), bits[np.newaxis, :])
    assert es.packed[0, 0] == 0x80
    assert es.packed[0, 1] == 0x00


def test_embedding_file_round_trip(tmp_path, rng):
    bits = rng.integers(0, 2, size=(37, 64), dtype=np.uint8)
    ids = rng.choice(2**40, size=37, replace=False).astype(np.uint64)
    es = EmbeddingSet.from_bits(ids, bits)
    path = tmp_path / "x.ndem"
    es.save(path)
    back = EmbeddingSet.load(path)
    assert back.d == 64
    np.testing.assert_array_equal(back.ids, es.ids)
    np.testing.assert_array_equal(back.packed, es.packed)
    # header layout: magic, version u16, d u16, count u64
    blob = path.read_bytes()
    assert blob[:4] == b"NDEM"
    assert int.from_bytes(blob[4:6], "little") == 1
    assert int.from_bytes(blob[6:8], "little") == 64
    assert int.from_bytes(blob[8:16], "little") == 37
    assert len(blob) == 16 + 37 * (8 + 8)


def test_embedding_file_rejects_corruption(tmp_path, rng):
    from neardup.errors import FormatError

    bits = rng.integers(0, 2, size=(3, 16), dtype=np.uint8)
    es = EmbeddingSet.from_bits(np.arange(3, dtype=np.uint64), bits)
    path = tmp_path / "x.ndem"
    es.save(path)
    blob = path.read_bytes()
    (tmp_path / "bad_magic.ndem").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        EmbeddingSet.load(tmp_path / "bad_magic.ndem")
    (tmp_path / "truncated.ndem").write_bytes(blob[:-3])
    with pytest.raises(FormatError):
        EmbeddingSet.load(tmp_path / "truncated.ndem")


def test_embedding_file_rejects_truncation_and_duplicate_ids(tmp_path, rng):
    from neardup.errors import FormatError

    bits = rng.integers(0, 2, size=(3, 16), dtype=np.uint8)
    path = tmp_path / "x.ndem"
    EmbeddingSet.from_bits(np.arange(3, dtype=np.uint64), bits).save(path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.ndem"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(FormatError):
            EmbeddingSet.load(cut)
    # record 1's id byte set to record 0's id: a parseable file with a repeat
    dup = bytearray(blob)
    dup[16 + 10] = 0
    cut.write_bytes(bytes(dup))
    with pytest.raises(FormatError):
        EmbeddingSet.load(cut)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_embedding_file_bit_flips_load_or_raise_format_error(data, tmp_path_factory):
    from neardup.errors import FormatError

    bits = np.random.default_rng(5).integers(0, 2, size=(4, 16), dtype=np.uint8)
    path = tmp_path_factory.mktemp("flip") / "x.ndem"
    EmbeddingSet.from_bits(np.arange(4, dtype=np.uint64), bits).save(path)
    blob = bytearray(path.read_bytes())
    pos = data.draw(st.integers(0, len(blob) - 1))
    blob[pos] ^= 1 << data.draw(st.integers(0, 7))
    path.write_bytes(bytes(blob))
    try:
        EmbeddingSet.load(path)
    except FormatError:
        pass


def test_hamming_distance_matrix_matches_xor_count(rng):
    bits = rng.integers(0, 2, size=(10, 64), dtype=np.uint8)
    es = EmbeddingSet.from_bits(np.arange(10, dtype=np.uint64), bits)
    rows_a = np.array([0, 3, 5])
    rows_b = np.array([1, 3, 9])
    got = hamming_distance_matrix(es, rows_a, rows_b)
    want = [(bits[a] != bits[b]).sum() for a, b in zip(rows_a, rows_b)]
    assert got.tolist() == want
    # narrow unsigned distances still compare right against any threshold,
    # as recall_at_distance's dist <= distance_threshold needs
    assert got.dtype == np.uint8
    for threshold in (-1, 64, 65, 300):
        assert (got <= threshold).tolist() == [w <= threshold for w in want]


def test_popcount_table_counts_the_set_bits_of_every_byte():
    # the table stands in for np.bitwise_count, which NumPy 1.24 lacks
    every_byte = np.arange(256, dtype=np.uint8)[:, None]
    assert _POPCOUNT.tolist() == np.unpackbits(every_byte, axis=1).sum(axis=1).tolist()
