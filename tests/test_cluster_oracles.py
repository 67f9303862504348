"""Differential tests of the columnar cut and cluster-file parser against
per-object reference versions.

kcut_oracle and read_clusters_tsv_oracle are the earlier per-group cut and
per-line parser, kept here verbatim in logic: one generator draw per group,
one Python object per cluster and per row. The popcount model scores every
pair by an exact integer hamming distance, so both sides see the same
scores whatever BLAS call they come from.
"""

import re

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from neardup import DataError, k_cut, read_clusters_tsv
from neardup.classifier import predict_rows
from neardup.clustering import clusters_to_tsv
from neardup.search import row_pair_keys
from neardup.selection import select_edges

from conftest import cluster_table, popcount_model, star_set

D = 64


def kcut_oracle(groups, model, embeddings, threshold, seed=0, scored=None):
    """The per-group cut: (cluster_id, head, members) tuples by cluster id."""
    if scored is None:
        known_keys, known_scores = np.zeros(0, dtype=np.uint64), np.zeros(0)
    else:
        a, b, score = (np.asarray(x).reshape(-1) for x in scored)
        keys = row_pair_keys(embeddings.rows_of(a), embeddings.rows_of(b))
        order = np.argsort(keys, kind="stable")
        known_keys, known_scores = keys[order], score.astype(np.float64)[order]
    rng = np.random.default_rng(seed)
    out = []
    work = []
    for g in groups:
        ids = np.asarray(g, dtype=np.uint64)
        if ids.size == 0:
            continue
        if ids.size == 1:
            out.append((int(ids[0]), int(ids[0]), []))
        else:
            work.append(np.sort(ids))
    while work:
        pivots = [int(w[rng.integers(w.size)]) for w in work]
        rest = [w[w != pivot] for w, pivot in zip(work, pivots)]
        sizes = np.array([r.size for r in rest], dtype=np.int64)
        rows_q = embeddings.rows_of(np.concatenate(rest))
        rows_p = np.repeat(embeddings.rows_of(pivots), sizes)
        keys = row_pair_keys(rows_q, rows_p)
        pos = np.searchsorted(known_keys, keys)
        found = pos < known_keys.size
        found[found] = known_keys[pos[found]] == keys[found]
        scores = np.empty(keys.size, dtype=np.float64)
        scores[found] = known_scores[pos[found]]
        if not found.all():
            missing = ~found
            scores[missing] = predict_rows(model, embeddings, rows_q[missing], rows_p[missing])
        ends = np.cumsum(sizes)
        next_work = []
        for start, end, others, pivot in zip((ends - sizes).tolist(), ends.tolist(), rest, pivots):
            s = scores[start:end]
            passed = s >= threshold
            members = [(int(m), float(sc)) for m, sc in zip(others[passed], s[passed])]
            out.append((min([pivot] + [m for m, _ in members]), pivot, members))
            residual = others[~passed]
            if residual.size == 1:
                out.append((int(residual[0]), int(residual[0]), []))
            elif residual.size > 1:
                next_work.append(residual)
        work = next_work
    return sorted(out, key=lambda c: c[0])


def read_clusters_tsv_oracle(path):
    """The per-line parser: (cluster_id, head, members) tuples by cluster id,
    members in file order."""
    heads = {}
    members = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataError(f"{path}:{ln}: expected 4 tab-separated fields")
            try:
                image_id, cluster_id, role = int(parts[0]), int(parts[1]), parts[2]
                score = float(parts[3]) if role == "member" else None
            except ValueError as exc:
                raise DataError(f"{path}:{ln}: {exc}") from None
            if role == "head":
                if cluster_id in heads:
                    raise DataError(f"{path}:{ln}: duplicate head for cluster {cluster_id}")
                heads[cluster_id] = image_id
            elif role == "member":
                members.setdefault(cluster_id, []).append((image_id, score))
            else:
                raise DataError(f"{path}:{ln}: unknown role {role!r}")
    missing = set(members) - set(heads)
    if missing:
        raise DataError(f"{path}: member rows for clusters without heads: {sorted(missing)}")
    return [(cid, heads[cid], members.get(cid, [])) for cid in sorted(heads)]


def as_tuples(clusters):
    return [(c.cluster_id, c.head, c.members) for c in clusters]


# -- k_cut ------------------------------------------------------------------------


@st.composite
def cut_cases(draw):
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    n = sum(sizes)
    ids = draw(st.permutations(range(3 * n)))[:n]
    flips = draw(
        st.lists(st.lists(st.integers(0, D - 1), max_size=9, unique=True), min_size=n, max_size=n)
    )
    seed = draw(st.integers(0, 2**32 - 1))
    edge_share = draw(st.sampled_from([0.0, 0.3, 0.8]))
    return sizes, ids, flips, seed, edge_share


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cut_cases(), st.booleans())
def test_k_cut_matches_per_group_oracle(case, below):
    sizes, ids, flips, seed, edge_share = case
    emb = star_set(D, 61, list(zip(ids, flips)))
    model = popcount_model(D, 7.5, alpha=1.0)  # h <= 6 scores >= 0.8, h <= 8 >= 0.3
    bounds = np.cumsum([0] + sizes)
    groups = [np.array(ids[lo:hi], dtype=np.uint64) for lo, hi in zip(bounds[:-1], bounds[1:])]
    # scored: the edges select_edges keeps at 0.8 among a share of each group's pairs
    rng = np.random.default_rng(seed)
    a, b = [], []
    for g in groups:
        ia, ib = np.triu_indices(g.size, k=1)
        take = rng.random(ia.size) < edge_share
        a.append(g[ia[take]])
        b.append(g[ib[take]])
    scored = select_edges(np.concatenate(a), np.concatenate(b), model, emb, 0.8)[:3]
    threshold = 0.3 if below else 0.8  # below the selection threshold, and equal to it
    for given_scores in (None, scored):
        got = as_tuples(k_cut(groups, model, emb, threshold, seed=seed, scored=given_scores))
        assert got == kcut_oracle(groups, model, emb, threshold, seed=seed, scored=given_scores)


def test_one_vector_draw_matches_scalar_draws():
    # k_cut draws all pivots of a round in one call, one-member groups
    # included: they must draw 0 and consume no random bits
    sizes = np.random.default_rng(5).integers(2, 2**40, size=20000)
    sizes[::7] = 1
    vector = np.random.default_rng(11).integers(sizes)
    scalar_rng = np.random.default_rng(11)
    assert vector.tolist() == [0 if s == 1 else int(scalar_rng.integers(int(s))) for s in sizes]


# -- read_clusters_tsv --------------------------------------------------------------


def _line_of(exc):
    found = re.search(r":(\d+): ", str(exc))
    return int(found.group(1)) if found else None


def _outcome(parse, path):
    try:
        return "ok", parse(path)
    except DataError as exc:
        return "error", _line_of(exc)


@st.composite
def cluster_files(draw):
    """Rows of a valid cluster file (any row order, stray blank lines), then
    up to two corruptions of the kinds the parser must name by line."""
    n_clusters = draw(st.integers(0, 6))
    pool = iter(draw(st.permutations(range(1, 200))))
    rows = []
    for _ in range(n_clusters):
        head = next(pool)
        members = [next(pool) for _ in range(draw(st.integers(0, 4)))]
        cid = min([head] + members)
        rows.append(f"{head}\t{cid}\thead\t")
        for m in members:
            score = draw(st.floats(0, 1, allow_nan=False))
            rows.append(f"{m}\t{cid}\tmember\t{score:.6f}")
    rows = draw(st.permutations(rows))
    kinds = ("fields", "numeric", "role", "dup_head", "orphan", "blank")
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=2)):
        at = draw(st.integers(0, len(rows)))
        fresh = 1000 + len(rows)
        if kind == "fields":
            rows.insert(at, draw(st.sampled_from([f"{fresh}\t{fresh}\thead", f"{fresh}\t1\tmember\t0.5\t"])))
        elif kind == "numeric":
            rows.insert(at, draw(st.sampled_from(
                [f"x{fresh}\t{fresh}\thead\t", f"{fresh}\tone\thead\t", f"{fresh}\t{fresh}\tmember\tabc"]
            )))
        elif kind == "role":
            rows.insert(at, f"{fresh}\t{fresh}\tchief\t")
        elif kind == "dup_head":
            heads = [r for r in rows if r.split("\t")[2:3] == ["head"]]
            if heads:
                cid = draw(st.sampled_from(heads)).split("\t")[1]
                rows.insert(at, f"{fresh}\t{cid}\thead\t")
        elif kind == "orphan":
            rows.insert(at, f"{fresh}\t{fresh + 1}\tmember\t0.5")
        else:
            rows.insert(at, "")
    return "".join(r + "\n" for r in rows)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cluster_files())
def test_parser_matches_per_line_oracle(tmp_path, text):
    path = tmp_path / "c.tsv"
    path.write_text(text)
    want = _outcome(read_clusters_tsv_oracle, path)
    got = _outcome(read_clusters_tsv, path)
    assert got[0] == want[0]
    if want[0] == "error":
        assert got[1] == want[1]  # the same line, or both name none
    else:
        members_sorted = [(cid, head, sorted(ms)) for cid, head, ms in want[1]]
        assert as_tuples(got[1]) == members_sorted
        # the views read the table's own arrays
        assert clusters_to_tsv(cluster_table(got[1])) == clusters_to_tsv(got[1])


def test_parser_names_each_malformed_kind_like_the_oracle(tmp_path):
    cases = {
        "fields": "1\t1\thead\t\n2\t2\thead\n",
        "numeric": "1\t1\thead\t\n2\tx\thead\t\n",
        "score": "1\t1\thead\t\n2\t1\tmember\tnope\n",
        "role": "1\t1\thead\t\n\n2\t2\tchief\t\n",
        "dup_head": "1\t1\thead\t\n2\t1\thead\t\n",
        "orphan": "1\t1\thead\t\n2\t3\tmember\t0.5\n",
    }
    for name, content in cases.items():
        path = tmp_path / f"{name}.tsv"
        path.write_text(content)
        want = _outcome(read_clusters_tsv_oracle, path)
        assert want[0] == "error"
        assert _outcome(read_clusters_tsv, path) == want, name
