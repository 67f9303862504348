"""Evaluation metrics: PR/ROC AUC, and Rand index, pairwise precision/recall
and purity over aligned label arrays.

Conventions are pinned so independent oracles can reproduce every value
exactly. PR AUC: thresholds are the distinct scores, prediction is
score >= threshold, the curve is anchored at (recall 0, precision 1) and
integrated trapezoidally over recall. ROC AUC: Mann-Whitney U statistic
normalized by n_pos * n_neg, with tied scores given average ranks.
"""

import numpy as np

from .errors import MetricError


def _check_binary(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise MetricError(f"scores and labels must align 1-d, got {scores.shape} vs {labels.shape}")
    if scores.size == 0:
        raise MetricError("empty inputs")
    uniq = set(np.unique(labels).tolist())
    if not uniq <= {0, 1}:
        raise MetricError(f"labels must be 0/1, got {sorted(uniq)}")
    if len(uniq) < 2:
        raise MetricError("metric undefined with a single class")
    return scores, labels.astype(np.int64)


def pr_curve(scores, labels):
    """(recall, precision, threshold) points at each distinct score, descending."""
    return _pr_points(*_check_binary(scores, labels))


def _pr_points(scores: np.ndarray, labels: np.ndarray):
    """pr_curve without its checks: labels need a positive, not both classes."""
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    l_sorted = labels[order]
    # each distinct score is a >= cut: count through the last row of its run
    ends = np.nonzero(np.append(np.diff(s_sorted) != 0, True))[0]
    tp = np.cumsum(l_sorted == 1)[ends].astype(np.float64)
    fp = np.cumsum(l_sorted == 0)[ends].astype(np.float64)
    return tp / float((labels == 1).sum()), tp / (tp + fp), s_sorted[ends]


def pr_auc(scores, labels) -> float:
    """Area under the precision-recall curve, trapezoidal over recall."""
    recall, precision, _ = pr_curve(scores, labels)
    r = np.concatenate(([0.0], recall))
    p = np.concatenate(([1.0], precision))
    return float(np.sum(np.diff(r) * (p[1:] + p[:-1]) / 2.0))


def roc_auc(scores, labels) -> float:
    """Mann-Whitney U normalization with average ranks for ties."""
    scores, labels = _check_binary(scores, labels)
    ranks = _average_ranks(scores)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    u = float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    ends = np.nonzero(np.append(np.diff(sorted_vals) != 0, True))[0]
    starts = np.concatenate(([0], ends[:-1] + 1))
    # 1-based ranks; ties share the mean rank of their run
    avg = (starts + ends) / 2.0 + 1.0
    run_ranks = np.repeat(avg, ends - starts + 1)
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = run_ranks
    return ranks


def rand_index(labels_a, labels_b) -> float:
    """Fraction of image pairs on which two clusterings agree.

    The arguments are aligned label arrays: entry i of each is the cluster
    of the same image. Agreement means the pair is together in both or
    apart in both.
    """
    labels_a, labels_b = _aligned(labels_a, labels_b)
    n = labels_a.size
    if n < 2:
        raise MetricError("need at least two images")
    total = n * (n - 1) // 2
    pairs_both = _co_clustered_pairs(labels_a, labels_b)
    disagreements = _co_clustered_pairs(labels_a) + _co_clustered_pairs(labels_b) - 2 * pairs_both
    return (total - disagreements) / total


def pairwise_precision_recall(predicted, truth):
    """Precision/recall of co-clustered pairs against ground truth.

    The arguments are aligned label arrays, as for rand_index. An empty pair
    set on either side makes the corresponding metric 1.0 by convention.
    """
    predicted, truth = _aligned(predicted, truth)
    pred_pairs = _co_clustered_pairs(predicted)
    true_pairs = _co_clustered_pairs(truth)
    tp = _co_clustered_pairs(predicted, truth)
    precision = tp / pred_pairs if pred_pairs else 1.0
    recall = tp / true_pairs if true_pairs else 1.0
    return precision, recall


def purity(predicted, truth) -> float:
    """Share of images whose truth label is the most common one in their
    predicted cluster; aligned label arrays, as for rand_index."""
    predicted, truth = _aligned(predicted, truth)
    if predicted.size == 0:
        raise MetricError("empty inputs")
    sizes, order, starts = _label_runs(predicted, truth)
    # runs come sorted by predicted label; each cluster counts its largest
    cluster = predicted[order[starts]]
    firsts = np.flatnonzero(np.r_[True, cluster[1:] != cluster[:-1]])
    return int(np.maximum.reduceat(sizes, firsts).sum()) / predicted.size


def _aligned(labels_a, labels_b):
    labels_a, labels_b = np.asarray(labels_a).reshape(-1), np.asarray(labels_b).reshape(-1)
    if labels_a.size != labels_b.size:
        raise MetricError(f"label arrays must align, got {labels_a.size} vs {labels_b.size} images")
    return labels_a, labels_b


def _label_runs(*labels):
    """Sizes of the runs of equal label tuples, the sorting order and each
    run's start in it."""
    order = np.lexsort(labels[::-1])
    change = np.zeros(order.size, dtype=bool)
    change[:1] = True
    for values in labels:
        ordered = values[order]
        change[1:] |= ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(change)
    return np.diff(np.append(starts, order.size)), order, starts


def _co_clustered_pairs(*labels) -> int:
    """Image pairs that agree on every labelling given."""
    sizes = _label_runs(*labels)[0].astype(np.int64)
    return int((sizes * (sizes - 1) // 2).sum())
