"""Metric tests against exhaustive oracles.

The AUC oracles enumerate every distinct score as a threshold and integrate
by hand; the clustering oracles count pairs directly.
"""

import itertools
from collections import Counter

import numpy as np
import pytest

from neardup import MetricError, pairwise_precision_recall, pr_auc, purity, rand_index, roc_auc


def pr_auc_oracle(scores, labels):
    pos = sum(labels)
    points = [(0.0, 1.0)]
    for theta in sorted(set(scores), reverse=True):
        tp = sum(1 for s, l in zip(scores, labels) if s >= theta and l)
        fp = sum(1 for s, l in zip(scores, labels) if s >= theta and not l)
        points.append((tp / pos, tp / (tp + fp)))
    return sum(
        (r1 - r0) * (p0 + p1) / 2.0 for (r0, p0), (r1, p1) in zip(points, points[1:])
    )


def roc_auc_oracle(scores, labels):
    # pair counting: P(pos > neg) + 0.5 P(tie)
    wins = ties = 0
    total = 0
    for (sp, lp), (sn, ln) in itertools.product(zip(scores, labels), repeat=2):
        if lp == 1 and ln == 0:
            total += 1
            if sp > sn:
                wins += 1
            elif sp == sn:
                ties += 1
    return (wins + 0.5 * ties) / total


def pair_agreement_oracle(a, b):
    agree = total = 0
    for i, j in itertools.combinations(range(len(a)), 2):
        total += 1
        if (a[i] == a[j]) == (b[i] == b[j]):
            agree += 1
    return agree / total


def pairwise_pr_oracle(pred, truth):
    tp = fp = fn = 0
    for i, j in itertools.combinations(range(len(pred)), 2):
        p = pred[i] == pred[j]
        t = truth[i] == truth[j]
        tp += p and t
        fp += p and not t
        fn += t and not p
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return precision, recall


def purity_oracle(pred, truth):
    # each cluster counts the images of its most common truth label
    members = {}
    for p, t in zip(pred.tolist(), truth.tolist()):
        members.setdefault(p, []).append(t)
    return sum(max(Counter(ts).values()) for ts in members.values()) / len(pred)


def test_frozen_small_case():
    scores = [0.9, 0.8, 0.3]
    labels = [1, 0, 1]
    # thresholds 0.9, 0.8, 0.3 give (r=1/2, p=1), (1/2, 1/2), (1, 2/3);
    # trapezoids: 1/2*1 + 0 + 1/2*(1/2+2/3)/2 = 19/24
    assert pr_auc(scores, labels) == pytest.approx(19 / 24, abs=1e-12)
    # one of two pos-neg pairs ranks correctly
    assert roc_auc(scores, labels) == pytest.approx(0.5, abs=1e-12)


def test_auc_matches_oracles(rng):
    for _ in range(60):
        n = int(rng.integers(2, 50))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 2)  # ties on purpose
        assert pr_auc(scores, labels) == pytest.approx(
            pr_auc_oracle(list(scores), list(labels)), abs=1e-9
        )
        assert roc_auc(scores, labels) == pytest.approx(
            roc_auc_oracle(list(scores), list(labels)), abs=1e-9
        )


def test_auc_bounds_and_extremes():
    perfect = roc_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
    assert perfect == 1.0
    assert roc_auc([0.1, 0.2, 0.9, 0.8], [1, 1, 0, 0]) == 0.0
    assert pr_auc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0


def test_roc_score_inversion(rng):
    n = 30
    labels = rng.integers(0, 2, size=n)
    labels[0], labels[1] = 0, 1
    scores = rng.random(n)
    assert roc_auc(-scores, labels) == pytest.approx(1.0 - roc_auc(scores, labels))


def test_metric_input_validation():
    with pytest.raises(MetricError):
        pr_auc([], [])
    with pytest.raises(MetricError):
        roc_auc([0.5, 0.5], [1, 1])  # single class
    with pytest.raises(MetricError):
        pr_auc([0.5, 0.5], [1, 2])
    with pytest.raises(MetricError):
        roc_auc([0.5], [1, 0])


def random_labels(rng, n, n_labels):
    return rng.integers(n_labels, size=n).astype(np.uint64)


def test_rand_index_matches_pair_counting(rng):
    for _ in range(30):
        n = int(rng.integers(2, 25))
        a = random_labels(rng, n, 4)
        b = random_labels(rng, n, 4)
        assert rand_index(a, b) == pytest.approx(pair_agreement_oracle(a, b), abs=1e-12)


def test_rand_index_extremes():
    a = [0, 0, 1]
    assert rand_index(a, [9, 9, 4]) == 1.0  # relabeling is invisible
    assert rand_index([0, 1], [0, 0]) == 0.0
    with pytest.raises(MetricError):
        rand_index(a, [0, 0])
    with pytest.raises(MetricError):
        rand_index([0], [0])


def test_pairwise_pr_matches_oracle(rng):
    for _ in range(30):
        n = int(rng.integers(2, 25))
        pred = random_labels(rng, n, 4)
        truth = random_labels(rng, n, 4)
        assert pairwise_precision_recall(pred, truth) == pytest.approx(
            pairwise_pr_oracle(pred, truth), abs=1e-12
        )


def test_pairwise_pr_conventions():
    # all singletons predicted: no predicted pairs, precision 1 by convention
    pred = [1, 2, 3]
    truth = [0, 0, 0]
    p, r = pairwise_precision_recall(pred, truth)
    assert (p, r) == (1.0, 0.0)
    p, r = pairwise_precision_recall(truth, truth)
    assert (p, r) == (1.0, 1.0)
    with pytest.raises(MetricError):
        pairwise_precision_recall(pred, [0])


def test_purity_matches_majority_count_oracle(rng):
    for _ in range(30):
        n = int(rng.integers(1, 40))
        pred = random_labels(rng, n, int(rng.integers(1, 8)))
        truth = random_labels(rng, n, int(rng.integers(1, 8)))
        assert purity(pred, truth) == purity_oracle(pred, truth)
    assert purity([1, 1, 2, 2], [5, 6, 7, 7]) == 0.75
    with pytest.raises(MetricError):
        purity([1, 2], [1])
    with pytest.raises(MetricError):
        purity([], [])
