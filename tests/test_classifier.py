"""Classifier tests: scalar-loop oracles for the forward pass, numeric
gradients against the analytic ones, and training behavior checks."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neardup import (
    DataError,
    EmbeddingSet,
    FormatError,
    MlpModel,
    ModelError,
    PipelineConfig,
    SyntheticCorpusSpec,
    TrainingError,
    choose_threshold,
    generate_corpus,
    init_model,
    load_model,
    predict_rows,
    save_model,
    train,
    train_default_model,
)
from neardup import classifier
from neardup.classifier import SCORE_CHUNK_ROWS, forward_batch, loss_and_grads


def forward_oracle(model, feats):
    """The network, one multiply at a time."""
    act = [float(v) for v in feats]
    for li, (w, b) in enumerate(zip(model.weights, model.biases)):
        nxt = []
        for r in range(w.shape[0]):
            z = float(b[r])
            for c in range(w.shape[1]):
                z += float(w[r, c]) * act[c]
            nxt.append(z)
        last = li == len(model.weights) - 1
        act = nxt if last else [max(z, 0.0) for z in nxt]
    return 1.0 / (1.0 + math.exp(-act[0]))


def threshold_oracle(scores, labels, min_recall):
    """Try every distinct score as a >= cut, exhaustively."""
    pos = sum(labels)
    best = None
    for theta in sorted(set(scores)):
        tp = sum(1 for s, l in zip(scores, labels) if s >= theta and l)
        fp = sum(1 for s, l in zip(scores, labels) if s >= theta and not l)
        recall = tp / pos
        if recall < min_recall:
            continue
        precision = tp / (tp + fp) if tp + fp else 0.0
        key = (precision, recall, -theta)
        if best is None or key > best[0]:
            best = (key, theta)
    return min(scores) if best is None else best[1]


def forward_one(model, feats):
    """forward_batch on a single feature vector."""
    return float(forward_batch(model, np.asarray(feats, dtype=np.float64)[np.newaxis, :])[0])


def random_model(rng, widths):
    weights = [rng.normal(size=(o, i)) for i, o in zip(widths, widths[1:])]
    biases = [rng.normal(size=o) for o in widths[1:]]
    return MlpModel(weights, biases)


def test_sigmoid_unit_value():
    m = MlpModel([np.ones((1, 1))], [np.zeros(1)])
    assert forward_one(m, [1.0]) == pytest.approx(0.7310585786300049, abs=1e-15)
    assert forward_one(m, [0.0]) == 0.5


def test_forward_matches_scalar_oracle(rng):
    for widths in ([4, 1], [6, 5, 1], [8, 7, 3, 1]):
        m = random_model(rng, widths)
        for _ in range(5):
            x = rng.integers(0, 2, size=widths[0]).astype(np.float64)
            assert forward_one(m, x) == pytest.approx(forward_oracle(m, x), abs=1e-12)


def test_forward_batch_matches_single(rng):
    m = random_model(rng, [10, 4, 1])
    x = rng.integers(0, 2, size=(20, 10)).astype(np.float64)
    batch = forward_batch(m, x)
    for i in range(20):
        # blas sums batched and single rows in different orders
        assert batch[i] == pytest.approx(forward_one(m, x[i]), abs=1e-12)


def test_bce_loss_value(rng):
    m = random_model(rng, [6, 4, 1])
    x = rng.integers(0, 2, size=(32, 6)).astype(np.float64)
    y = rng.integers(0, 2, size=32).astype(np.float64)
    loss, _, _ = loss_and_grads(m, x, y)
    p = forward_batch(m, x)
    want = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
    assert loss == pytest.approx(want, abs=1e-12)


def test_gradients_match_finite_differences(rng):
    m = random_model(rng, [8, 6, 4, 1])
    x = rng.integers(0, 2, size=(16, 8)).astype(np.float64)
    y = rng.integers(0, 2, size=16).astype(np.float64)
    _, gw, gb = loss_and_grads(m, x, y)

    h = 1e-6
    worst = 0.0
    for params, grads in ((m.weights, gw), (m.biases, gb)):
        for p, g in zip(params, grads):
            flat_p = p.reshape(-1)
            flat_g = g.reshape(-1)
            for j in range(flat_p.size):
                keep = flat_p[j]
                flat_p[j] = keep + h
                up, _, _ = loss_and_grads(m, x, y)
                flat_p[j] = keep - h
                down, _, _ = loss_and_grads(m, x, y)
                flat_p[j] = keep
                num = (up - down) / (2 * h)
                denom = max(1.0, abs(num), abs(flat_g[j]))
                worst = max(worst, abs(num - flat_g[j]) / denom)
    assert worst < 1e-4


def test_init_model_xavier_bounds():
    m = init_model(64, hidden=(32, 16), seed=3)
    assert [w.shape for w in m.weights] == [(32, 64), (16, 32), (1, 16)]
    for w, b in zip(m.weights, m.biases):
        limit = math.sqrt(6.0 / (w.shape[1] + w.shape[0]))
        assert np.all(np.abs(w) <= limit)
        assert np.all(b == 0.0)
    again = init_model(64, hidden=(32, 16), seed=3)
    assert all(np.array_equal(a, b) for a, b in zip(m.weights, again.weights))


def small_training_set(d=32, copies=40):
    # id 1 is a duplicate of 0, id 2 is far away
    base = np.random.default_rng(5).integers(0, 2, size=d, dtype=np.uint8)
    far = base.copy()
    far[: d // 2] ^= 1
    emb = EmbeddingSet.from_bits(
        np.array([0, 1, 2], dtype=np.uint64), np.stack([base, base, far])
    )
    pairs = [(0, 1, 1), (0, 2, 0)] * copies
    return emb, pairs


def training_config(seed: int, **classifier) -> PipelineConfig:
    """A pipeline config with the given seed and classifier settings."""
    return PipelineConfig.from_dict({"seed": seed, "classifier": classifier})


def test_train_separates_two_points():
    emb, pairs = small_training_set()
    cfg = training_config(1, hidden=[8], epochs=60, batch_size=16, learning_rate=3e-2)
    result = train(pairs, emb, cfg)
    assert len(result.epoch_losses) == 60
    assert result.epoch_losses[-1] < result.epoch_losses[0]
    dup, far = predict_rows(result.model, emb, [0, 0], [1, 2])
    assert dup > 0.9
    assert far < 0.1


def test_train_deterministic_under_seed():
    emb, pairs = small_training_set()
    cfg = training_config(7, hidden=[8], epochs=5, batch_size=16)
    a = train(pairs, emb, cfg)
    b = train(pairs, emb, cfg)
    assert all(np.array_equal(x, y) for x, y in zip(a.model.weights, b.model.weights))
    assert all(np.array_equal(x, y) for x, y in zip(a.model.biases, b.model.biases))
    assert a.validation == b.validation  # the chosen threshold among them
    c = train(pairs, emb, training_config(8, hidden=[8], epochs=5, batch_size=16))
    assert not all(
        np.array_equal(x, y) for x, y in zip(a.model.weights, c.model.weights)
    )


def test_train_rejects_bad_labels():
    emb, pairs = small_training_set(copies=2)
    config = PipelineConfig()
    with pytest.raises(TrainingError):
        train([], emb, config)
    with pytest.raises(TrainingError):
        train([(0, 1, 1), (0, 2, 1)], emb, config)  # single class
    with pytest.raises(TrainingError):
        train([(0, 1, 2), (0, 2, 0)], emb, config)
    with pytest.raises(TypeError):
        train(pairs, emb)  # the settings come from a PipelineConfig only


def test_predict_rows_symmetric_and_ordered(rng, monkeypatch):
    bits = rng.integers(0, 2, size=(6, 16), dtype=np.uint8)
    emb = EmbeddingSet.from_bits(np.arange(6, dtype=np.uint64), bits)
    m = random_model(rng, [16, 5, 1])
    fwd = predict_rows(m, emb, [0, 2, 4], [1, 3, 5])
    rev = predict_rows(m, emb, [1, 3, 5], [0, 2, 4])
    assert np.array_equal(fwd, rev)
    # chunking must not change anything
    monkeypatch.setattr(classifier, "SCORE_CHUNK_ROWS", 1)
    assert np.array_equal(fwd, predict_rows(m, emb, [0, 2, 4], [1, 3, 5]))
    # each score is the network on the pair's XOR bits
    for i, (a, b) in enumerate([(0, 1), (2, 3), (4, 5)]):
        assert fwd[i] == pytest.approx(forward_oracle(m, bits[a] ^ bits[b]), abs=1e-12)
    assert predict_rows(m, emb, [], []).shape == (0,)


def test_predict_rows_checks_width(rng):
    bits = rng.integers(0, 2, size=(2, 16), dtype=np.uint8)
    emb = EmbeddingSet.from_bits(np.arange(2, dtype=np.uint64), bits)
    m = random_model(rng, [8, 1])
    with pytest.raises(ModelError):
        predict_rows(m, emb, [0], [1])
    with pytest.raises(ModelError):
        predict_rows(m, emb, [], [])


def test_predict_rows_rejects_bad_rows(rng):
    bits = rng.integers(0, 2, size=(6, 16), dtype=np.uint8)
    emb = EmbeddingSet.from_bits(np.arange(6, dtype=np.uint64), bits)
    m = random_model(rng, [16, 5, 1])
    bad = [
        ([0, 1, 2, 3], [5]),  # would broadcast to four scores
        ([0, 1, 2], [5, 6]),
        ([-1], [0]),  # would wrap to the last row
        ([0], [6]),
        ([0, 1], [2, -6]),
        ([[0, 1]], [[2, 3]]),
        (np.zeros((2, 1)), np.zeros((2, 1))),
        (0, 1),
    ]
    for rows_a, rows_b in bad:
        with pytest.raises(DataError):
            predict_rows(m, emb, rows_a, rows_b)
    assert predict_rows(m, emb, [0, 5], [5, 0]).shape == (2,)


# one canonical-width model and a call spanning three chunks, shared by the
# examples below
_SUBSET_RNG = np.random.default_rng(20261018)
_SUBSET_EMB = EmbeddingSet.from_bits(
    np.arange(400, dtype=np.uint64), _SUBSET_RNG.integers(0, 2, size=(400, 256), dtype=np.uint8)
)
_SUBSET_MODEL = init_model(256, seed=5)
for _b in _SUBSET_MODEL.biases:
    _b += _SUBSET_RNG.normal(scale=0.1, size=_b.shape)
_SUBSET_A = _SUBSET_RNG.integers(0, 400, size=2 * SCORE_CHUNK_ROWS + 300)
_SUBSET_B = _SUBSET_RNG.integers(0, 400, size=_SUBSET_A.size)
_SUBSET_FULL = predict_rows(_SUBSET_MODEL, _SUBSET_EMB, _SUBSET_A, _SUBSET_B)


def _every_small_size(test):
    """test run at each size 1-40 as well as on what hypothesis draws: BLAS
    sums calls of a few rows (up to 21 seen), and a call's last rows, in
    another order."""
    for size in range(1, 41):
        test = example(size=size, seed=size)(test)
    return test


@_every_small_size
@settings(max_examples=40, deadline=None)
@given(
    size=st.one_of(
        st.integers(1, _SUBSET_A.size),
        st.sampled_from(
            [SCORE_CHUNK_ROWS - 1, SCORE_CHUNK_ROWS, SCORE_CHUNK_ROWS + 1, 2 * SCORE_CHUNK_ROWS + 1]
        ),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_predict_rows_subset_matches_full_call(size, seed):
    # scores are reused across calls (k_cut takes selection's, merge takes
    # matching's and choose_head's): a pair's score is the same in either
    # order and whatever other pairs share its call, bit for bit
    r = np.random.default_rng(seed)
    pick = r.permutation(_SUBSET_A.size)[:size]
    swap = r.integers(0, 2, size=size).astype(bool)
    rows_a = np.where(swap, _SUBSET_B[pick], _SUBSET_A[pick])
    rows_b = np.where(swap, _SUBSET_A[pick], _SUBSET_B[pick])
    got = predict_rows(_SUBSET_MODEL, _SUBSET_EMB, rows_a, rows_b)
    assert np.array_equal(got, predict_rows(_SUBSET_MODEL, _SUBSET_EMB, rows_b, rows_a))
    assert np.array_equal(got, _SUBSET_FULL[pick])


def test_choose_threshold_matches_exhaustive_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        scores = np.round(rng.random(n), 2)  # coarse grid forces score ties
        min_recall = float(rng.choice([0.3, 0.5, 0.9]))
        got = choose_threshold(scores, labels, min_recall=min_recall)
        want = threshold_oracle(list(scores), list(labels), min_recall)
        assert got == pytest.approx(want, abs=0)


def test_choose_threshold_tie_policy():
    # cuts at 0.9 and 0.7 both give precision 1.0; recall prefers 0.7
    scores = np.array([0.9, 0.7, 0.2])
    labels = np.array([1, 1, 0])
    assert choose_threshold(scores, labels, min_recall=0.5) == 0.7
    # infeasible recall falls back to the lowest score
    assert choose_threshold(np.array([0.4, 0.6]), np.array([1, 1]), min_recall=2.0) == 0.4
    with pytest.raises(TrainingError):
        choose_threshold(np.array([0.5]), np.array([0]))


def test_model_shape_validation():
    with pytest.raises(ModelError):
        MlpModel([], [])
    with pytest.raises(ModelError):
        MlpModel([np.ones((2, 3))], [np.zeros(2)])  # output width 2
    with pytest.raises(ModelError):
        MlpModel([np.ones((4, 3)), np.ones((1, 5))], [np.zeros(4), np.zeros(1)])
    with pytest.raises(ModelError):
        MlpModel([np.ones((1, 3))], [np.zeros(2)])


def test_model_file_round_trip(tmp_path, rng):
    m = random_model(rng, [12, 5, 1])
    path = tmp_path / "m.ndml"
    save_model(m, path)
    loaded = load_model(path)
    # storage is f32: loading returns the rounded values exactly
    for p, lp in zip(m.weights + m.biases, loaded.weights + loaded.biases):
        assert np.array_equal(lp, p.astype(np.float32).astype(np.float64))
    # a second save of the loaded model is byte-identical
    save_model(loaded, tmp_path / "m2.ndml")
    assert (tmp_path / "m2.ndml").read_bytes() == path.read_bytes()


def test_model_file_rejects_corruption(tmp_path, rng):
    path = tmp_path / "m.ndml"
    save_model(random_model(rng, [4, 1]), path)
    blob = path.read_bytes()
    (tmp_path / "bad_magic").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        load_model(tmp_path / "bad_magic")
    (tmp_path / "trailing").write_bytes(blob + b"\x00")
    with pytest.raises(FormatError):
        load_model(tmp_path / "trailing")


def test_model_file_rejects_truncation(tmp_path, rng):
    path = tmp_path / "m.ndml"
    save_model(random_model(rng, [6, 3, 1]), path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.ndml"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(FormatError):
            load_model(cut)
    # a well-formed file holding no layers is not a model
    cut.write_bytes(blob[:6] + b"\x00\x00")
    with pytest.raises(FormatError):
        load_model(cut)
    # nor is one with a NaN weight (the first, after the header and the
    # first layer's shape) or a NaN bias (the output unit's, the last value)
    nan = np.array([np.nan], dtype="<f4").tobytes()
    for blob_with_nan in (blob[:16] + nan + blob[20:], blob[:-4] + nan):
        cut.write_bytes(blob_with_nan)
        with pytest.raises(FormatError, match="non-finite weight or bias"):
            load_model(cut)


def test_version_1_model_file_is_refused(tmp_path, rng):
    # version 1 ended in an f32 threshold that no stage read
    path = tmp_path / "m.ndml"
    save_model(random_model(rng, [6, 3, 1]), path)
    blob = path.read_bytes()
    assert blob[4:6] == struct.pack("<H", 2)
    path.write_bytes(blob[:4] + struct.pack("<H", 1) + blob[6:] + struct.pack("<f", 0.5))
    with pytest.raises(FormatError, match="unsupported version 1, expected 2"):
        load_model(path)


def small_model():
    """train's model on small_training_set, and its embeddings."""
    emb, pairs = small_training_set()
    cfg = training_config(1, hidden=[8], epochs=60, batch_size=16, learning_rate=3e-2)
    return train(pairs, emb, cfg).model, emb


def golden_model():
    """The model test_golden pins: default settings on its seed-11 corpus."""
    emb, truth = generate_corpus(SyntheticCorpusSpec(seed=11, n_base=300, d=256, flip_min=1, flip_max=8))
    return train_default_model(emb, truth, PipelineConfig())[0].model, emb


@pytest.mark.parametrize("trained", [small_model, golden_model])
def test_trained_model_scores_as_its_file(tmp_path, trained):
    # train ends at the file's f32 precision, so the model in process and
    # its reloaded file are one model, score for score
    model, emb = trained()
    save_model(model, tmp_path / "m.ndml")
    loaded = load_model(tmp_path / "m.ndml")
    for p, lp in zip(model.weights + model.biases, loaded.weights + loaded.biases):
        assert np.array_equal(lp, p)
    rows_a, rows_b = np.random.default_rng(3).integers(0, len(emb), size=(2, 20_000))
    assert np.array_equal(predict_rows(loaded, emb, rows_a, rows_b), predict_rows(model, emb, rows_a, rows_b))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_model_file_bit_flips_load_or_raise_format_error(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("flip") / "m.ndml"
    save_model(random_model(np.random.default_rng(4), [6, 3, 1]), path)
    blob = bytearray(path.read_bytes())
    pos = data.draw(st.integers(0, len(blob) - 1))
    blob[pos] ^= 1 << data.draw(st.integers(0, 7))
    path.write_bytes(bytes(blob))
    try:
        load_model(path)
    except FormatError:
        pass
