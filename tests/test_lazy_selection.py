"""select_edges against scoring every candidate pair in one call.

select_edges scores pairs in windows and skips a pair whose images earlier
edges already join. Its window is the scoring chunk size; setting
selection.SCORE_CHUNK_ROWS here forces many windows on small inputs, while
predict_rows keeps its own chunking. The popcount model scores a pair by
an exact integer sum of its differing bits, so a score has the same bits in
any call. Its bits are weighted 0, 1 or 2 here: the hamming order that
select_edges walks then guesses the score order only roughly, as with a
trained model, and a failing pair can come before a passing one.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from neardup import k_cut, selection, transitive_closure
from neardup.classifier import predict_rows
from neardup.selection import select_edges

from conftest import popcount_model, star_set
from test_clustering import union_find_oracle

D = 64


@st.composite
def candidate_sets(draw):
    """Images around one base row under shuffled ids, a share of their pairs
    as candidates in random order and orientation, the model's bit weights,
    a window size and a cut seed."""
    n = draw(st.integers(2, 40))
    share = draw(st.sampled_from([0.1, 0.5, 1.0]))
    weighted = draw(st.booleans())
    window = draw(st.sampled_from([1, 2, 3, 7, 32, 1024]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = rng.permutation(3 * n)[:n].astype(np.uint64)
    flips = [rng.choice(D, size=rng.integers(0, 9), replace=False).tolist() for _ in range(n)]
    ia, ib = np.triu_indices(n, k=1)
    take = rng.permutation(np.flatnonzero(rng.random(ia.size) < share))
    swap = rng.random(take.size) < 0.5
    pairs = ids[np.where(swap, ib[take], ia[take])], ids[np.where(swap, ia[take], ib[take])]
    bit_weights = rng.integers(0, 3, size=D) if weighted else np.ones(D)
    return ids, flips, pairs, window, bit_weights, int(rng.integers(2**32))


def is_subsequence(part, whole) -> bool:
    rest = iter(whole)
    return all(item in rest for item in part)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(candidate_sets(), st.sampled_from([0.3, 0.8]))
def test_lazy_selection_matches_scoring_every_pair(case, threshold):
    ids, flips, (a, b), window, bit_weights, seed = case
    emb = star_set(D, 67, list(zip(ids, flips)))
    model = popcount_model(D, 7.5, alpha=1.0)  # h <= 6 scores >= 0.8, h <= 8 >= 0.3
    model.weights[0][0] = bit_weights
    full = predict_rows(model, emb, emb.rows_of(a), emb.rows_of(b))
    passing = full >= threshold

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selection, "SCORE_CHUNK_ROWS", window)
        edges_a, edges_b, scores, scored = select_edges(a, b, model, emb, threshold)

    everything = list(zip(a.tolist(), b.tolist()))
    found = list(zip(edges_a.tolist(), edges_b.tolist()))
    every_passing = [pair for pair, ok in zip(everything, passing.tolist()) if ok]
    assert is_subsequence(found, everything)
    at = [everything.index(pair) for pair in found]
    # the same bits as the call over every pair, all at or above the threshold
    assert scores.tolist() == full[at].tolist()
    assert (scores >= threshold).all()
    assert union_find_oracle(found) == union_find_oracle(every_passing)
    assert len(found) <= scored <= a.size
    if window >= a.size:
        # one window: nothing is joined before it, so every pair is scored
        # and every passing pair returned
        assert scored == a.size
        assert found == every_passing

    groups = transitive_closure(np.column_stack((edges_a, edges_b)))
    assert [g.tolist() for g in groups] == union_find_oracle(found)
    lazy = k_cut(groups, model, emb, threshold, seed=seed, scored=(edges_a, edges_b, scores))
    eager = k_cut(groups, model, emb, threshold, seed=seed, scored=(a[passing], b[passing], full[passing]))
    for got, want in zip(lazy.columns, eager.columns):
        np.testing.assert_array_equal(got, want)
