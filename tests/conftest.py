"""Shared fixtures and hand-built helpers.

The popcount model is the workhorse for deterministic behavior tests: an
MLP computing sigmoid(alpha * (theta - hamming(a, b))), built by hand. Its
score depends only on the pair's hamming distance, so tests can construct
embeddings with exact distances and reason about pass/fail sets without
training anything.
"""

import numpy as np
import pytest

from neardup import ClusterTable, EmbeddingSet, LshConfig, MlpModel
from neardup.embeddings import derive_terms_matrix


def popcount_model(d: int, theta: float, alpha: float = 8.0) -> MlpModel:
    """score = sigmoid(alpha * (theta - hamming)). Pairs with distance
    strictly below theta score high, above it low; alpha sets the sharpness."""
    return MlpModel(
        [
            np.ones((1, d)),  # ReLU(sum of xor bits) = hamming, nonnegative
            np.ones((1, 1)),
            np.ones((1, 1)),
            np.array([[-float(alpha)]]),
        ],
        [np.zeros(1), np.zeros(1), np.zeros(1), np.array([float(alpha) * float(theta)])],
    )


def term_sets(embeddings: EmbeddingSet, config: LshConfig) -> dict:
    """image id -> frozenset of its terms, one row of derive_terms_matrix each."""
    terms = derive_terms_matrix(embeddings.bits_matrix(), config)
    return {int(i): frozenset(int(t) for t in row) for i, row in zip(embeddings.ids, terms)}


def flip(bits: np.ndarray, positions) -> np.ndarray:
    out = bits.copy()
    out[list(positions)] ^= 1
    return out


def star_set(d: int, seed: int, members) -> EmbeddingSet:
    """Embeddings around one random base row.

    members: list of (image_id, flip_positions); flip positions are applied
    to the base, so hamming(a, b) = |flips_a ^ flips_b| exactly.
    """
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 2, size=d, dtype=np.uint8)
    if not members:
        return EmbeddingSet.from_bits(
            np.zeros(0, dtype=np.uint64), np.zeros((0, d), dtype=np.uint8)
        )
    ids, rows = [], []
    for image_id, positions in members:
        ids.append(image_id)
        rows.append(flip(base, positions))
    return EmbeddingSet.from_bits(np.array(ids, dtype=np.uint64), np.stack(rows))


def cluster_table(clusters) -> ClusterTable:
    """The table of (cluster_id, head, [(member, score), ...]) entries."""
    rows = [(head, cid, True, np.nan) for cid, head, _ in clusters]
    rows += [(m, cid, False, s) for cid, _, members in clusters for m, s in members]
    return ClusterTable(*zip(*rows)) if rows else ClusterTable()


@pytest.fixture
def lsh64() -> LshConfig:
    # 6 groups of 6 bits over the first 36 positions
    return LshConfig(d=64, selected_bits=tuple(range(36)), term_bits=6)


@pytest.fixture
def rng():
    return np.random.default_rng(0xBEEF)
