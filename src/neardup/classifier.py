"""Near-duplicate pair classifier: an MLP over XORed binary embeddings.

The two embeddings of a candidate pair are XORed bitwise and the resulting
0/1 vector is the network input, so the model sees only where the pair
disagrees and score(a, b) == score(b, a) holds bit-exactly. Hidden layers
are ReLU, the output is a single sigmoid unit, training is mini-batch Adam
on binary cross-entropy. Everything is plain dense numpy float64; no ML
runtime is involved.

A model is its weights and biases, nothing more: the decision cut of every
stage is config's classifier.threshold. train ends by rounding every
parameter to the model file's float32, so a trained model scores bit for
bit like the file save_model writes of it, and the validation figures,
among them the cut choose_threshold picks, describe that model.

predict_rows is the one scoring entry point. It scores row pairs in chunks
of SCORE_CHUNK_ROWS, and forward_batch adds the bias and applies ReLU in
place on each layer's product, so a chunk holds one activation array per
layer. Scoring stays float64: float32 moves printed scores (see ROADMAP).
A score is the same in either pair order and whatever other pairs share
its call, bit for bit: BLAS sums a call's last rows, and calls of a few
rows, in another order, so predict_rows pads each chunk with zero rows to
a multiple of SCORE_PAD_ROWS. A score made once is therefore reused, not
computed again: the static pipeline hands its kept edge scores to k_cut,
ingest hands the batch's kept edge and cut scores to choose_head, and
merge keeps the head-match scores and choose_head's medoid scores.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .embeddings import EmbeddingSet
from .errors import DataError, FormatError, ModelError, TrainingError
from .metrics import _pr_points, pr_auc, roc_auc
from .util import ByteReader, atomic_write_bytes

MODEL_MAGIC = b"NDML"
MODEL_VERSION = 2

# Pairs predict_rows scores per forward pass. A 1024-row chunk's widest
# activation (512 units, float64) is 4 MiB; at 8192 rows it is 32 MiB. On
# the 35,886 candidate pairs of the 25,248-image bench corpus, a 2-vCPU
# Xeon (2 MiB L2 per core, OpenBLAS) scored in 0.46, 0.41, 0.38, 0.39,
# 0.45 and 0.45 s at 256, 512, 1024, 2048, 4096 and 8192 rows, with
# bit-identical scores at every size. The best value follows the cache,
# not the data or the caller, so it is a constant, not a knob.
SCORE_CHUNK_ROWS = 1024

# predict_rows pads each chunk with zero rows up to a multiple of this many
# rows, so a pair's score does not depend on the call that computes it.
# Measured on a 2-vCPU AVX-512 Xeon, where OpenBLAS 0.3.31 runs its
# SkylakeX kernels (the core scipy_openblas_get_corename64_() names): it
# sums a call of a few rows (up to 21 seen), and a call's last n mod 4
# rows, in another order than the rest, which moved scores by up to 4
# units in the last place. With every chunk a multiple of 32 rows, 264
# subsets of 2,348 pairs, every size 1-40 among them, scored bit for bit
# as in the full call under one and two BLAS threads, where 139 of them
# moved unpadded. A 1-pair call then takes 0.6-1.0 ms instead of 0.18 ms.
# SCORE_CHUNK_ROWS is a multiple of it, so only a call's last chunk is
# padded.
SCORE_PAD_ROWS = 32

# Share of the labelled pairs train holds out, and the recall the threshold
# it chooses on them must reach.
VALIDATION_FRACTION = 0.1
MIN_RECALL = 0.5


@dataclass
class MlpModel:
    """Dense feedforward net. weights[i] has shape (fan_out, fan_in)."""

    weights: list
    biases: list

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ModelError("weights and biases must be non-empty and aligned")
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ModelError(f"layer shape mismatch: W{w.shape} b{b.shape}")
        for prev, nxt in zip(self.weights, self.weights[1:]):
            if nxt.shape[1] != prev.shape[0]:
                raise ModelError(
                    f"layer chaining mismatch: {prev.shape} feeds {nxt.shape}"
                )
        if self.weights[-1].shape[0] != 1:
            raise ModelError("output layer must have a single unit")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]


def init_model(d: int, hidden=(512, 256, 64), seed: int = 0) -> MlpModel:
    """Xavier-uniform initialized model with the canonical layer stack."""
    rng = np.random.default_rng(seed)
    widths = [d, *hidden, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(widths, widths[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward_batch(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Scores in [0, 1] for a (n, d) feature matrix."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != model.input_dim:
        raise ModelError(
            f"feature matrix must be (n, {model.input_dim}), got {feats.shape}"
        )
    act = feats
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        # the same per-element steps as max(act @ w.T + b, 0), in one array
        act = act @ w.T
        act += b
        np.maximum(act, 0.0, out=act)
    logits = act @ model.weights[-1].T + model.biases[-1]
    return _sigmoid(logits[:, 0])


def loss_and_grads(model: MlpModel, features: np.ndarray, labels: np.ndarray):
    """Mean BCE loss and analytic gradients for one batch.

    Returns (loss, grad_weights, grad_biases). Loss is computed from logits
    for stability; dL/dlogit = sigmoid(logit) - label.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise TrainingError("empty batch")

    acts = [x]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        acts.append(np.maximum(acts[-1] @ w.T + b, 0.0))
    logits = (acts[-1] @ model.weights[-1].T + model.biases[-1])[:, 0]

    # bce from logits: max(z,0) - z*y + log1p(exp(-|z|))
    loss = float(np.mean(np.maximum(logits, 0.0) - logits * y + np.log1p(np.exp(-np.abs(logits)))))

    delta = ((_sigmoid(logits) - y) / n)[:, np.newaxis]
    grad_w = [None] * len(model.weights)
    grad_b = [None] * len(model.biases)
    grad_w[-1] = delta.T @ acts[-1]
    grad_b[-1] = delta.sum(axis=0)
    back = delta @ model.weights[-1]
    for li in range(len(model.weights) - 2, -1, -1):
        back = back * (acts[li + 1] > 0.0)
        grad_w[li] = back.T @ acts[li]
        grad_b[li] = back.sum(axis=0)
        if li:
            back = back @ model.weights[li]
    return loss, grad_w, grad_b


@dataclass
class TrainResult:
    model: MlpModel
    epoch_losses: list = field(default_factory=list)
    validation: dict = field(default_factory=dict)


def _unpack(packed: np.ndarray, d: int) -> np.ndarray:
    return np.unpackbits(packed, axis=1)[:, :d].astype(np.float64)


def train(pairs: np.ndarray, embeddings: EmbeddingSet, config: PipelineConfig) -> TrainResult:
    """Train a fresh model on an (n, 3) array of (id_a, id_b, label) rows,
    with the settings of config.classifier.

    Deterministic under config.seed: initialization, the validation split
    and per-epoch shuffles all draw from one seeded generator. The weights
    and biases end rounded to float32, the model file's precision. When
    the split holds both classes, validation reports its size, PR and ROC
    AUC and, as "threshold", the highest-precision cut with recall >=
    MIN_RECALL; otherwise it is empty.
    """
    settings = config.classifier
    pairs = np.asarray(pairs, dtype=np.uint64).reshape(-1, 3)
    if not len(pairs):
        raise TrainingError("empty training set")
    labels = pairs[:, 2].astype(np.float64)
    if (labels > 1).any():
        raise TrainingError("labels must be 0 or 1")
    if labels.min() == labels.max():
        raise TrainingError("training set must contain both classes")

    rng = np.random.default_rng(config.seed)
    model = init_model(embeddings.d, hidden=settings.hidden, seed=config.seed)

    n = len(pairs)
    perm = rng.permutation(n)
    n_val = int(round(n * VALIDATION_FRACTION))
    # keep both classes in the training portion regardless of the split draw
    val_rows = perm[:n_val]
    train_rows = perm[n_val:]
    if train_rows.size == 0 or labels[train_rows].min() == labels[train_rows].max():
        val_rows = np.zeros(0, dtype=np.int64)
        train_rows = perm

    # packed XOR rows are 8x smaller than float features; unpack per batch
    rows_a = embeddings.rows_of(pairs[:, 0])
    rows_b = embeddings.rows_of(pairs[:, 1])
    xor_packed = np.bitwise_xor(embeddings.packed[rows_a], embeddings.packed[rows_b])

    m_w = [np.zeros_like(w) for w in model.weights]
    v_w = [np.zeros_like(w) for w in model.weights]
    m_b = [np.zeros_like(b) for b in model.biases]
    v_b = [np.zeros_like(b) for b in model.biases]
    step = 0
    epoch_losses = []
    n_train = train_rows.size
    for _ in range(settings.epochs):
        order = train_rows[rng.permutation(n_train)]
        batch_losses = []
        for s in range(0, n_train, settings.batch_size):
            rows = order[s : s + settings.batch_size]
            x = _unpack(xor_packed[rows], embeddings.d)
            loss, gw, gb = loss_and_grads(model, x, labels[rows])
            batch_losses.append(loss * rows.size)
            step += 1
            c1 = 1.0 - settings.beta1**step
            c2 = 1.0 - settings.beta2**step
            for params, grads, ms, vs in (
                (model.weights, gw, m_w, v_w),
                (model.biases, gb, m_b, v_b),
            ):
                for p, g, m, v in zip(params, grads, ms, vs):
                    m *= settings.beta1
                    m += (1.0 - settings.beta1) * g
                    v *= settings.beta2
                    v += (1.0 - settings.beta2) * np.square(g)
                    p -= settings.learning_rate * (m / c1) / (np.sqrt(v / c2) + settings.eps)
        epoch_losses.append(sum(batch_losses) / n_train)

    model = MlpModel(
        [w.astype(np.float32).astype(np.float64) for w in model.weights],
        [b.astype(np.float32).astype(np.float64) for b in model.biases],
    )
    validation = {}
    y_val = labels[val_rows]
    if val_rows.size and y_val.min() != y_val.max():
        val_scores = predict_rows(model, embeddings, rows_a[val_rows], rows_b[val_rows])
        validation = {
            "size": int(val_rows.size),
            "threshold": choose_threshold(val_scores, y_val),
            "pr_auc": pr_auc(val_scores, y_val),
            "roc_auc": roc_auc(val_scores, y_val),
        }
    return TrainResult(model, epoch_losses, validation)


def choose_threshold(scores: np.ndarray, labels: np.ndarray, min_recall: float = MIN_RECALL) -> float:
    """Highest-precision score cut subject to recall >= min_recall.

    Ties prefer higher recall, then the lower threshold; falls back to the
    lowest score when no cut reaches min_recall.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if not (labels == 1).any():
        raise TrainingError("cannot choose a threshold without positives")
    recall, precision, thetas = _pr_points(scores, labels)
    feasible = np.nonzero(recall >= min_recall)[0]
    if feasible.size == 0:
        return float(scores.min())
    p_feas = precision[feasible]
    # thetas are descending and recall is non-decreasing, so the last
    # max-precision candidate also maximizes recall and minimizes theta
    pick = feasible[np.nonzero(p_feas == p_feas.max())[0][-1]]
    return float(thetas[pick])


def predict_rows(model: MlpModel, embeddings: EmbeddingSet, rows_a, rows_b) -> np.ndarray:
    """Scores for the row pairs (rows_a[i], rows_b[i]) of one embedding set,
    order-preserving, chunked for memory. The one scoring entry point.

    rows_a and rows_b must be 1-D, of equal length, with every row in
    [0, len(embeddings)); anything else is a DataError.
    """
    if embeddings.d != model.input_dim:
        raise ModelError(
            f"model expects input width {model.input_dim}, embeddings have d={embeddings.d}"
        )
    rows_a = np.asarray(rows_a, dtype=np.intp)
    rows_b = np.asarray(rows_b, dtype=np.intp)
    if rows_a.ndim != 1 or rows_b.ndim != 1:
        raise DataError(f"row arrays must be 1-D, got shapes {rows_a.shape} and {rows_b.shape}")
    if rows_a.size != rows_b.size:
        raise DataError(f"row arrays differ in length: {rows_a.size} and {rows_b.size}")
    if rows_a.size and (
        min(rows_a.min(), rows_b.min()) < 0 or max(rows_a.max(), rows_b.max()) >= len(embeddings)
    ):
        raise DataError(f"rows must be in [0, {len(embeddings)})")
    out = np.empty(rows_a.size, dtype=np.float64)
    for s in range(0, rows_a.size, SCORE_CHUNK_ROWS):
        n = min(SCORE_CHUNK_ROWS, rows_a.size - s)
        xor = np.zeros((n + -n % SCORE_PAD_ROWS, embeddings.packed.shape[1]), dtype=np.uint8)
        np.bitwise_xor(embeddings.packed[rows_a[s : s + n]], embeddings.packed[rows_b[s : s + n]], out=xor[:n])
        out[s : s + n] = forward_batch(model, _unpack(xor, embeddings.d))[:n]
    return out


# -- model file --------------------------------------------------------------
#
# magic "NDML" | version u16 | n_layers u16
# per layer: rows u32 | cols u32 | rows*cols f32 weights (row-major) | rows f32 biases
# Little-endian, nothing after the last layer. Weights are stored at f32
# precision, the precision train ends at.


def save_model(model: MlpModel, path) -> None:
    parts = [MODEL_MAGIC, struct.pack("<HH", MODEL_VERSION, len(model.weights))]
    for w, b in zip(model.weights, model.biases):
        parts.append(struct.pack("<II", w.shape[0], w.shape[1]))
        parts.append(w.astype("<f4").tobytes())
        parts.append(b.astype("<f4").tobytes())
    atomic_write_bytes(path, b"".join(parts))


def load_model(path) -> MlpModel:
    r = ByteReader.open(path, MODEL_MAGIC, MODEL_VERSION, "model")
    (n_layers,) = r.unpack("<H")
    weights, biases = [], []
    for _ in range(n_layers):
        rows, cols = r.unpack("<II")
        weights.append(r.array("<f4", rows * cols).reshape(rows, cols))
        biases.append(r.array("<f4", rows))
    r.done()
    if not all(np.isfinite(a).all() for a in weights + biases):
        raise FormatError(f"{path}: non-finite weight or bias")
    weights = [w.astype(np.float64) for w in weights]
    biases = [b.astype(np.float64) for b in biases]
    try:
        return MlpModel(weights, biases)
    except ModelError as exc:
        raise FormatError(f"{path}: {exc}") from exc
