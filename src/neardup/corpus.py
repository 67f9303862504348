"""Synthetic corpora with planted near-duplicates, plus labeled pair sampling.

Base images are uniform random bit vectors. Each base receives a number of
duplicates drawn from a configurable distribution (power-law-ish by
default, so pair groups dominate and sizes are heavy-tailed); a duplicate
is its base with k uniformly chosen bits flipped, k uniform in
[flip_min, flip_max]. flip_max well below the expected random-pair hamming
distance (d/2) keeps planted pairs unambiguous. flip_min == flip_max == 0
plants exact duplicates.

Ground truth is the partition {base + its duplicates}. Labeled pairs for
classifier training are sampled from it: positives inside groups, negatives
across groups, with a configurable fraction of negatives restricted to
pairs that actually collide in the LSH index (harder negatives).
"""

import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingSet, LshConfig
from .errors import DataError, SamplingError
from .index import MAX_IMAGES
from .util import U64, atomic_write_json, atomic_write_text, find_sorted, pairs_within, read_columns

DEFAULT_DUPES_DIST = {0: 0.5, 1: 0.25, 2: 0.11, 3: 0.06, 4: 0.04, 6: 0.025, 9: 0.01, 16: 0.005}


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    seed: int = 0
    n_base: int = 1000
    d: int = 256
    dupes_per_base: dict = field(default_factory=lambda: dict(DEFAULT_DUPES_DIST))
    flip_min: int = 1
    flip_max: int = 12

    def __post_init__(self):
        if self.seed < 0:  # np.random.default_rng takes no negative seed
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if self.n_base <= 0:
            raise DataError("n_base must be positive")
        if self.d <= 0 or self.d % 8:
            raise DataError(f"d must be a positive multiple of 8, got {self.d}")
        if not 0 <= self.flip_min <= self.flip_max <= self.d:
            raise DataError(
                f"flip range [{self.flip_min}, {self.flip_max}] invalid for d={self.d}"
            )
        dist = {int(k): float(v) for k, v in self.dupes_per_base.items()}
        if not dist or any(k < 0 for k in dist) or not all(0 <= v < float("inf") for v in dist.values()):
            raise DataError("dupes_per_base must map counts >= 0 to finite weights >= 0")
        total = sum(dist.values())
        if total <= 0:
            raise DataError("dupes_per_base weights sum to zero")
        largest = max(k for k, v in dist.items() if v > 0)
        if self.n_base * (1 + largest) > MAX_IMAGES:
            raise DataError(
                f"n_base {self.n_base} with a dupes_per_base count of {largest} can make "
                f"{self.n_base * (1 + largest)} images; an index holds at most 2^32"
            )
        object.__setattr__(self, "dupes_per_base", {k: v / total for k, v in sorted(dist.items())})


@dataclass
class GroundTruth:
    """group_of[i] is the group id of ids[i]; group id = the base image id."""

    ids: np.ndarray
    group_of: np.ndarray

    def __post_init__(self):
        self.ids = np.ascontiguousarray(self.ids, dtype=np.uint64)
        self.group_of = np.ascontiguousarray(self.group_of, dtype=np.uint64)
        if self.ids.shape != self.group_of.shape:
            raise DataError("ids and group_of must align")

    def assignment(self) -> dict:
        return {int(i): int(g) for i, g in zip(self.ids, self.group_of)}

    def group_sizes(self) -> np.ndarray:
        _, counts = np.unique(self.group_of, return_counts=True)
        return counts

    def within_group_pairs(self) -> np.ndarray:
        """Every (id, id) pair inside a group, an (n, 2) array: groups in order
        of first appearance in ids, members in id order, pairs in upper-triangle order."""
        _, first, inverse, sizes = np.unique(
            self.group_of, return_index=True, return_inverse=True, return_counts=True
        )
        order = np.lexsort((self.ids, first[inverse.reshape(-1)]))
        ia, ib = pairs_within(sizes[np.argsort(first)])
        ids = self.ids[order]
        return np.stack((ids[ia], ids[ib]), axis=1)


def generate_corpus(spec: SyntheticCorpusSpec):
    """Returns (EmbeddingSet, GroundTruth), ids sequential from 0 and
    deterministic under spec.seed."""
    rng = np.random.default_rng(spec.seed)
    counts = np.array(sorted(spec.dupes_per_base), dtype=np.int64)
    probs = np.array([spec.dupes_per_base[int(c)] for c in counts])
    dupes = rng.choice(counts, size=spec.n_base, p=probs)

    n_total = int(spec.n_base + dupes.sum())
    bits = np.zeros((n_total, spec.d), dtype=np.uint8)
    group_of = np.zeros(n_total, dtype=np.uint64)

    base_bits = rng.integers(0, 2, size=(spec.n_base, spec.d), dtype=np.uint8)
    row = 0
    for b in range(spec.n_base):
        base_id = row
        bits[row] = base_bits[b]
        group_of[row] = base_id
        row += 1
        for _ in range(int(dupes[b])):
            k = int(rng.integers(spec.flip_min, spec.flip_max + 1))
            dup = base_bits[b].copy()
            if k:
                flip = rng.choice(spec.d, size=k, replace=False)
                dup[flip] ^= 1
            bits[row] = dup
            group_of[row] = base_id
            row += 1

    ids = np.arange(n_total, dtype=np.uint64)
    return EmbeddingSet.from_bits(ids, bits), GroundTruth(ids, group_of)


def generate_labels(
    truth: GroundTruth,
    embeddings: EmbeddingSet,
    n_pos: int,
    n_neg: int,
    seed: int = 0,
    lsh_config: LshConfig = None,
    hard_negative_fraction: float = 0.5,
    min_overlap: int = 2,
) -> np.ndarray:
    """Sample labelled pairs from ground truth: an (n, 3) uint64 array of
    (id_a, id_b, label) rows, the positives first.

    Positives are uniform over within-group pairs without replacement.
    Negatives are cross-group; when lsh_config is given, up to
    hard_negative_fraction of them come from pairs the LSH index would
    actually surface as candidates (>= min_overlap shared terms), the rest
    uniform random cross-group.
    """
    if n_pos < 0 or n_neg < 0:
        raise SamplingError("pair counts must be >= 0")
    rng = np.random.default_rng(seed)

    pos_pairs = truth.within_group_pairs()
    if n_pos > 0 and not len(pos_pairs):
        raise SamplingError("ground truth has no within-group pairs (all singletons)")
    if n_pos > len(pos_pairs):
        raise SamplingError(f"requested {n_pos} positives, only {len(pos_pairs)} exist")
    pos_idx = rng.choice(len(pos_pairs), size=n_pos, replace=False) if n_pos else []
    chosen = set()

    n_hard = int(round(n_neg * hard_negative_fraction)) if lsh_config is not None else 0
    if n_hard:
        hard = _candidate_cross_group_pairs(truth, embeddings, lsh_config, min_overlap)
        take = min(n_hard, len(hard))
        if take:
            chosen.update(map(tuple, hard[rng.choice(len(hard), size=take, replace=False)].tolist()))

    ids, group = truth.ids.tolist(), truth.group_of.tolist()
    n = len(ids)
    if n < 2 and n_neg:
        raise SamplingError("need at least two images for negatives")
    attempts = 0
    while len(chosen) < n_neg:
        attempts += 1
        if attempts > 200 * n_neg + 1000:
            raise SamplingError("cannot sample enough distinct cross-group negatives")
        i, j = rng.integers(n), rng.integers(n)
        a, b = ids[i], ids[j]
        if a == b or group[i] == group[j]:
            continue
        pair = (a, b) if a < b else (b, a)
        chosen.add(pair)

    pairs = np.concatenate((pos_pairs[pos_idx], np.array(sorted(chosen), dtype=np.uint64).reshape(-1, 2)))
    return np.column_stack((pairs, np.arange(len(pairs)) < n_pos))


def _candidate_cross_group_pairs(
    truth: GroundTruth, embeddings: EmbeddingSet, lsh_config, min_overlap: int
) -> np.ndarray:
    """Sorted unordered cross-group pairs, (n, 2), that the index surfaces as candidates."""
    from .index import build_index
    from .search import self_pairs

    a, b, _ = self_pairs(build_index(embeddings, lsh_config), min_overlap)
    ends = np.concatenate((a, b))
    order = np.argsort(truth.ids)
    pos, known = find_sorted(truth.ids[order], ends)
    if not known.all():
        raise DataError(f"image {ends[~known][0]} has no ground-truth group")
    group_a, group_b = np.split(truth.group_of[order[pos]], 2)
    cross = group_a != group_b
    return np.column_stack((a[cross], b[cross]))


# -- labeled pair CSV --------------------------------------------------------
#
# header id_a,id_b,label; label is 0/1. A reader carries any later column,
# such as a source tag, without reading it.


def write_labels_csv(pairs: np.ndarray, path) -> None:
    """The labels CSV of an (n, 3) array of (id_a, id_b, label) rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)  # rows end in \r\n, the csv module's default
    writer.writerow(["id_a", "id_b", "label"])
    writer.writerows(np.asarray(pairs).tolist())
    atomic_write_text(path, buffer.getvalue())


def read_pairs_csv(path) -> np.ndarray:
    """The (id_a, id_b) rows of a CSV with header id_a,id_b: an (n, 2) uint64 array."""
    return np.column_stack(read_columns(path, [U64, U64], exact=False, header=("id_a", "id_b")))


def read_labels_csv(path) -> np.ndarray:
    """The (id_a, id_b, label) rows of a labels CSV: an (n, 3) uint64 array."""

    def check(columns, flag):
        flag(np.flatnonzero(columns[2] > 1), lambda r: "label must be 0 or 1")
        return columns

    header = ("id_a", "id_b", "label")
    return np.column_stack(read_columns(path, [U64, U64, U64], exact=False, header=header, check=check))


# -- corpus directory --------------------------------------------------------
#
# embeddings.ndem + groundtruth.tsv (image_id <tab> group_id) + spec.json


def save_corpus(embeddings: EmbeddingSet, truth: GroundTruth, directory, spec: SyntheticCorpusSpec = None) -> None:
    os.makedirs(directory, exist_ok=True)
    embeddings.save(os.path.join(directory, "embeddings.ndem"))
    rows = zip(truth.ids.tolist(), truth.group_of.tolist())
    atomic_write_text(os.path.join(directory, "groundtruth.tsv"), "".join(f"{i}\t{g}\n" for i, g in rows))
    if spec is not None:
        payload = {
            "seed": spec.seed,
            "n_base": spec.n_base,
            "d": spec.d,
            "dupes_per_base": {str(k): v for k, v in spec.dupes_per_base.items()},
            "flip_min": spec.flip_min,
            "flip_max": spec.flip_max,
        }
        atomic_write_json(os.path.join(directory, "spec.json"), payload)


def load_corpus(directory):
    embeddings = EmbeddingSet.load(os.path.join(directory, "embeddings.ndem"))
    path = os.path.join(directory, "groundtruth.tsv")
    truth = GroundTruth(*read_columns(path, [U64, U64]))
    if truth.ids.size != len(embeddings):
        raise DataError(f"{directory}: ground truth covers {truth.ids.size} ids, embeddings {len(embeddings)}")
    unknown = truth.ids[~embeddings.contains(truth.ids)]
    if unknown.size:
        raise DataError(f"{path}: image {unknown[0]} has a group but no embedding")
    ungrouped = np.setdiff1d(embeddings.ids, truth.ids)
    if ungrouped.size:
        raise DataError(f"{path}: image {ungrouped[0]} has an embedding but no group")
    return embeddings, truth
