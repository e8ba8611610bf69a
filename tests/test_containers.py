import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from rtlab import containers
from rtlab.containers import (
    C_ELL_BOUND,
    DELTA_BOUND_DENOM,
    N_TAU,
    TAU_THRESHOLD,
    RainbowHypergraphStats,
    build_rainbow_hypergraph,
    codegree,
    codegree_from_rows,
    container_constants,
    container_hypothesis_check,
    delta_tau,
    hypothesis_flags,
    is_complete_on_complete_host,
    materialize_rows,
    max_codegree,
    max_codegrees_from_rows,
    min_n_for_container,
    structural_average_degree,
    structural_codegree,
    structural_max_codegrees,
)
from rtlab.errors import CapExceeded
from rtlab.exactmath import falling_factorial
from rtlab.graphs import Graph, clique_edge_ids, complete_graph, enumerate_graphs, turan_graph
from rtlab.templates import (
    Template,
    complete_template,
    count_distinct_choices,
    count_rainbow_copies,
)
from test_acceptance import CODEGREE_GRID, MIN_N_CONTAINER_R12
from test_templates import brute_rainbow_rows, random_template

# ---------------------------------------------------------------------------
# stats of small complete templates


def test_stats_examples(k4, k5):
    stats, rows = build_rainbow_hypergraph(complete_template(k4, 6))
    assert (stats.vertex_count, stats.edge_count) == (36, 720)
    assert stats.average_degree == Fraction(120)
    assert rows is None
    stats5, _ = build_rainbow_hypergraph(complete_template(k5, 6))
    assert stats5.edge_count == 3600
    for r in range(1, 6):
        s, _ = build_rainbow_hypergraph(complete_template(k5, r))
        assert s.edge_count == 0
        assert s.average_degree == 0
        assert s.max_codegrees == (0, 0, 0, 0, 0)


def test_degree_identity_on_materialized(k5):
    rng = random.Random(13)
    for _ in range(15):
        t = random_template(rng, 5, 6)
        stats, rows = build_rainbow_hypergraph(t, materialize=True)
        assert stats.average_degree * stats.vertex_count == 6 * stats.edge_count
        assert rows.shape == (stats.edge_count, 6)
        # row degrees recount the edge total
        if stats.edge_count:
            ids, counts = np.unique(rows, return_counts=True)
            assert counts.sum() == 6 * stats.edge_count


def test_materialized_stats_count_each_k4_once(k5, kernel_calls):
    t = complete_template(k5, 9)
    stats, rows = build_rainbow_hypergraph(t, materialize=True)
    assert stats.edge_count == len(rows) == 5 * falling_factorial(9, 6)
    assert len(kernel_calls) == 5


def test_stated_bounds_hold_with_equality_for_complete_templates():
    for n in range(4, 8):
        for r in (6, 7, 12):
            t = complete_template(complete_graph(n), r)
            stats, _ = build_rainbow_hypergraph(t)
            assert stats.vertex_count == r * comb(n, 2)
            assert stats.edge_count == falling_factorial(r, 6) * comb(n, 4)
            assert stats.average_degree == comb(n - 2, 2) * falling_factorial(r - 1, 5)


def test_edge_and_degree_bounds_sweep_r_up_to_12():
    # the stated upper bounds hold across the whole small grid, including
    # the degenerate r < 6 cases where the hypergraph is empty
    for n in range(1, 8):
        for r in range(1, 13):
            t = complete_template(complete_graph(n), r)
            stats, _ = build_rainbow_hypergraph(t, stats_only=True)
            assert stats.edge_count <= falling_factorial(r, 6) * comb(n, 4)
            assert stats.average_degree <= comb(max(n - 2, 0), 2) * falling_factorial(r - 1, 5)


def test_structural_matches_materialized_n7():
    # completes the n <= 7 half of the structural/materialized agreement
    for r in (6, 7):
        t = complete_template(complete_graph(7), r)
        rows = materialize_rows(t)
        base = t.graph.edge_count * r
        assert max_codegrees_from_rows(rows, base) == structural_max_codegrees(7, r)
        rng = random.Random(700 + r)
        for _ in range(15):
            size = rng.randint(2, 6)
            pairs = set()
            while len(pairs) < size:
                pairs.add((rng.randrange(t.graph.edge_count), rng.randint(1, r)))
            pairs = sorted(pairs)
            vids = [e * r + (c - 1) for e, c in pairs]
            assert structural_codegree(t, pairs) == codegree_from_rows(rows, vids)
            assert structural_codegree(t, pairs) == codegree(t, pairs)


# ---------------------------------------------------------------------------
# co-degrees: the canonical pairwise cases, structural vs materialized vs DP


def test_codegree_pairwise_cases(k6):
    t12 = complete_template(k6, 12)
    e01 = k6.edge_id(0, 1)
    e02 = k6.edge_id(0, 2)
    e23 = k6.edge_id(2, 3)
    # shared vertex, distinct colors: (n-3)(r-2)...(r-5)
    assert codegree(t12, [(e01, 1), (e02, 2)]) == 3 * falling_factorial(10, 4) == 15120
    # repeated color kills the co-degree
    assert codegree(t12, [(e01, 1), (e02, 1)]) == 0
    assert codegree(t12, [(e01, 1), (e01, 2)]) == 0
    # disjoint edges at r=6: (r-2)...(r-5)
    t6 = complete_template(k6, 6)
    assert codegree(t6, [(e01, 1), (e23, 2)]) == falling_factorial(4, 4) == 24
    # structural case analysis agrees
    assert structural_codegree(t12, [(e01, 1), (e02, 2)]) == 15120
    assert structural_codegree(t6, [(e01, 1), (e23, 2)]) == 24
    assert structural_codegree(t12, [(e01, 3), (e02, 3)]) == 0


def test_codegree_three_edge_cases(k6):
    t = complete_template(k6, 12)
    e01, e02, e12 = k6.edge_id(0, 1), k6.edge_id(0, 2), k6.edge_id(1, 2)
    e03, e13 = k6.edge_id(0, 3), k6.edge_id(1, 3)
    e34 = k6.edge_id(3, 4)
    tri = [(e01, 1), (e02, 2), (e12, 3)]
    path = [(e01, 1), (e02, 2), (e34, 3)]  # spans 5 vertices: nothing contains it
    star = [(e01, 1), (e02, 2), (e03, 3)]
    pth4 = [(e02, 1), (e01, 2), (e13, 3)]  # path on vertices 2-0-1-3
    assert codegree(t, tri) == 3 * falling_factorial(9, 3)
    assert codegree(t, star) == falling_factorial(9, 3)
    assert codegree(t, pth4) == falling_factorial(9, 3)
    assert codegree(t, path) == 0
    for s in (tri, path, star, pth4):
        assert structural_codegree(t, s) == codegree(t, s)


def test_codegree_size_bounds(k6):
    t = complete_template(k6, 12)
    with pytest.raises(ValueError):
        codegree(t, [(0, 1)])
    with pytest.raises(ValueError):
        codegree(t, [(i, i + 1) for i in range(7)])
    with pytest.raises(ValueError):
        codegree(t, [(0, 13), (1, 1)])


def test_structural_matches_materialized_small_grid():
    for n in (4, 5):
        for r in (6, 7):
            t = complete_template(complete_graph(n), r)
            rows = materialize_rows(t)
            base = t.graph.edge_count * r
            assert max_codegrees_from_rows(rows, base) == structural_max_codegrees(n, r)
            # spot pairwise values across the three evaluation routes
            rng = random.Random(n * 100 + r)
            for _ in range(25):
                size = rng.randint(2, 6)
                pairs = set()
                while len(pairs) < size:
                    pairs.add((rng.randrange(t.graph.edge_count), rng.randint(1, r)))
                pairs = sorted(pairs)
                vids = [e * r + (c - 1) for e, c in pairs]
                want = codegree(t, pairs)
                assert structural_codegree(t, pairs) == want
                assert codegree_from_rows(rows, vids) == want


def test_max_codegree_on_general_templates_matches_enumeration():
    rng = random.Random(0xBEEF)
    for _ in range(12):
        t = random_template(rng, 5, 6)
        rows = materialize_rows(t)
        base = t.graph.edge_count * t.r
        got = max_codegrees_from_rows(rows, base)
        # independent pure-python recount over the product-oracle copies
        subsets = [Counter() for _ in range(5)]
        for vids in brute_rainbow_rows(t):
            for j in range(2, 7):
                for sub in itertools.combinations(vids, j):
                    subsets[j - 2][sub] += 1
        expect = tuple(
            max(c.values()) if c else 0 for c in subsets
        )
        assert got == expect
        for j in range(2, 7):
            assert max_codegree(t, j) == expect[j - 2]


# Row co-degrees against the counter they replaced: np.unique per column
# combination, merged across all C(6, j) combinations one at a time.  Its
# keys take at most two words of three digits, so it needs base**3 < 2**62.


def _merge_oracle_combo_counts(rows64, combo, base):
    j = len(combo)
    if base ** j < 2 ** 62:
        keys = rows64[:, combo[0]].copy()
        for c in combo[1:]:
            keys *= base
            keys += rows64[:, c]
        u, cnt = np.unique(keys, return_counts=True)
        return u.reshape(-1, 1), cnt.astype(np.int64)
    half = (j + 1) // 2
    hi = rows64[:, combo[0]].copy()
    for c in combo[1:half]:
        hi *= base
        hi += rows64[:, c]
    lo = rows64[:, combo[half]].copy()
    for c in combo[half + 1 :]:
        lo *= base
        lo += rows64[:, c]
    u, cnt = np.unique(np.stack([hi, lo], axis=1), axis=0, return_counts=True)
    return u, cnt.astype(np.int64)


def _merge_oracle_merge(a, b):
    keys = np.concatenate((a[0], b[0]), axis=0)
    if keys.shape[1] == 1:
        u, inv = np.unique(keys[:, 0], return_inverse=True)
        u = u.reshape(-1, 1)
    else:
        u, inv = np.unique(keys, axis=0, return_inverse=True)
    summed = np.zeros(len(u), dtype=np.int64)
    np.add.at(summed, inv.ravel(), np.concatenate((a[1], b[1])))
    return u, summed


def merge_oracle_max_codegrees(rows, base):
    if len(rows) == 0:
        return (0, 0, 0, 0, 0)
    rows64 = rows.astype(np.int64)
    out = []
    for j in range(2, 7):
        merged = None
        for combo in itertools.combinations(range(6), j):
            pair = _merge_oracle_combo_counts(rows64, combo, base)
            merged = pair if merged is None else _merge_oracle_merge(merged, pair)
        out.append(int(merged[1].max()))
    return tuple(out)


def _codegree_oracle_templates():
    """Seeded templates on 4-6 vertices with r = 6..9: K_n less up to two
    random edges with random lists, plus K5-e and K6-e with long lists.  On
    five or more vertices a triangle lies in two or more K4s, so the j <= 3
    counts must add up across columns."""
    rng = random.Random(0xC0DE6)
    out = []
    for _ in range(10):
        n, r = rng.randint(4, 6), rng.randint(6, 9)
        mask = (1 << comb(n, 2)) - 1
        for _ in range(rng.randint(0, 2)):
            mask &= ~(1 << rng.randrange(comb(n, 2)))
        g = Graph.from_mask(n, mask)
        out.append(Template(g, r, [sum(1 << c for c in range(r) if rng.random() < 0.75)
                                   for _ in range(g.edge_count)]))
    for n, r in ((5, 6), (5, 9), (6, 7), (6, 8)):
        g = Graph.from_mask(n, (1 << comb(n, 2)) - 2)  # K_n minus the edge 01
        full = (1 << r) - 1
        masks = [full & ~(1 << rng.randrange(r)) if rng.random() < 0.4 else full
                 for _ in range(g.edge_count)]
        out.append(Template(g, r, masks))
    return out


def test_row_codegrees_match_the_merge_oracle():
    nonempty = 0
    for t in _codegree_oracle_templates():
        rows = materialize_rows(t)
        base = t.graph.edge_count * t.r
        assert rows.dtype == (np.uint8 if base <= 256 else np.uint16)
        want = merge_oracle_max_codegrees(rows, base)
        nonempty += want != (0, 0, 0, 0, 0)
        for dtype in (np.uint16, np.int64):
            assert max_codegrees_from_rows(rows.astype(dtype), base) == want
        # int64 keys from j = 2 on, and past one int64 word for j >= 4
        wide = base * 10 ** 4
        assert wide ** 2 >= 2 ** 31 and wide ** 4 >= 2 ** 63
        assert max_codegrees_from_rows(rows, wide) == want
        if len(rows) > 50000:
            continue  # keys of one int64 word per digit sort slowly
        # the columns take the width of the ids, not of the base: uint16
        # columns under one int64 word per digit, then uint32 and int64 ones
        assert max_codegrees_from_rows(rows, 2 ** 33) == want
        for shift in (2 ** 16, 2 ** 32):
            assert max_codegrees_from_rows(rows.astype(np.int64) + shift, base + shift) == want
    assert nonempty >= 8
    for dtype in (np.uint16, np.int64):
        assert max_codegrees_from_rows(np.empty((0, 6), dtype=dtype), 36) == (0, 0, 0, 0, 0)


def mask_oracle_codegree(rows, vids):
    """Every id tested on the whole array, the membership masks AND-ed."""
    if len(rows) == 0:
        return 0
    mask = np.ones(len(rows), dtype=bool)
    for v in vids:
        mask &= (rows == v).any(axis=1)
    return int(np.count_nonzero(mask))


def test_row_codegree_matches_the_mask_oracle():
    rng = random.Random(0xC0DE7)
    hits = 0
    for t in _codegree_oracle_templates():
        rows = materialize_rows(t)
        base = t.graph.edge_count * t.r
        picks = [[]] + [sorted(rng.sample(range(base), rng.randint(1, 6))) for _ in range(20)]
        # sets drawn from a row hit it, including repeated ids
        picks += [sorted(rng.sample(list(rows[rng.randrange(len(rows))]), rng.randint(1, 6)))
                  for _ in range(20) if len(rows)]
        picks.append([int(rows[0, 0])] * 2 if len(rows) else [0, 0])
        for vids in picks:
            want = mask_oracle_codegree(rows, vids)
            hits += want > 0
            assert codegree_from_rows(rows, vids) == want
            assert codegree_from_rows(rows.astype(np.int64), vids) == want
        assert codegree_from_rows(rows[:0], picks[-1]) == 0
    assert hits >= 100


def test_row_codegrees_validate_their_input():
    rows = materialize_rows(complete_template(complete_graph(4), 6))  # ids 0..35
    assert max_codegrees_from_rows(rows, 36) == (24, 6, 2, 1, 1)
    assert max_codegrees_from_rows(rows, 37) == (24, 6, 2, 1, 1)
    for bad_base in (20, 35):  # keys of distinct sets would collide
        with pytest.raises(ValueError):
            max_codegrees_from_rows(rows, bad_base)
    for bad in (rows[:, :5], rows.ravel(), rows[None], rows[:, ::-1], rows.astype(float),
                rows.astype(np.int64) - 1):
        with pytest.raises(ValueError):
            max_codegrees_from_rows(bad, 36)
    with pytest.raises(ValueError):  # ids past int64
        max_codegrees_from_rows(rows.astype(np.uint64) + np.uint64(2 ** 63), 2 ** 64)
    # a list is one block; an iterator yields blocks, each one checked
    assert max_codegrees_from_rows(rows.tolist(), 36) == (24, 6, 2, 1, 1)
    assert max_codegrees_from_rows(iter([rows[:0], rows]), 36) == (24, 6, 2, 1, 1)
    assert max_codegrees_from_rows(iter([]), 36) == (0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        max_codegrees_from_rows(iter([rows, rows[:, ::-1]]), 36)


def test_row_codegrees_memory_follows_the_row_count():
    # one K4 on vertices 40..43 at the end of a 40-edge path: its edges take
    # the largest ids, so counting j = 3 in base**3 = 552**3 dense buckets
    # would need 1.3 GB
    g = Graph(44, [(i, i + 1) for i in range(40)]
              + list(itertools.combinations(range(40, 44), 2)))
    t = complete_template(g, 12)
    rows = materialize_rows(t)
    base = g.edge_count * 12
    assert (len(rows), base, int(rows.max())) == (665280, 552, 551)
    tracemalloc.start()
    try:
        got = max_codegrees_from_rows(rows, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (5040, 504, 56, 7, 1)
    assert peak < 150 * 2 ** 20


def test_row_codegrees_work_in_the_width_of_the_ids():
    # the rows of the test above: one copy of the columns in uint16 and one
    # int64 key buffer, about 31 bytes per row in all
    g = Graph(44, [(i, i + 1) for i in range(40)]
              + list(itertools.combinations(range(40, 44), 2)))
    rows = materialize_rows(complete_template(g, 12))
    assert len(rows) == 665280
    tracemalloc.start()
    try:
        got = max_codegrees_from_rows(rows, g.edge_count * 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (5040, 504, 56, 7, 1)
    assert peak < 32 * 2 ** 20


def test_max_codegree_structural_path(k6):
    t = complete_template(k6, 12)
    assert max_codegree(t, 6) == 1
    assert max_codegree(t, 2) == 15120
    assert structural_max_codegrees(6, 12) == (15120, 1512, 56, 7, 1)
    assert structural_max_codegrees(3, 12) == (0, 0, 0, 0, 0)
    assert structural_max_codegrees(6, 5) == (0, 0, 0, 0, 0)


def test_codegree_monotone_ladder(k6):
    # Delta_2 >= ... >= Delta_6 whenever the hypergraph is nonempty
    for n in (4, 5, 6):
        for r in (6, 9, 12):
            d = structural_max_codegrees(n, r)
            assert all(a >= b for a, b in zip(d, d[1:]))
            assert d[4] == 1


def _oracle_template(rng: random.Random) -> Template:
    """Random host on 4-7 vertices (often complete), r in 1..64, lists of
    1-4 colours, some empty lists, and full lists while r <= 6, so the
    product oracle stays small."""
    n = rng.randint(4, 7)
    r = rng.choice((rng.randint(1, 5), rng.randint(6, 12), rng.randint(13, 64), 64))
    g = complete_graph(n) if rng.random() < 0.5 else Graph.from_mask(n, rng.getrandbits(comb(n, 2)))
    full = (1 << r) - 1
    masks = []
    for _ in range(g.edge_count):
        roll = rng.random()
        if roll < 0.05:
            masks.append(0)
        elif r <= 6 and roll < 0.35:
            masks.append(full)
        else:
            masks.append(sum(1 << c for c in rng.sample(range(r), rng.randint(1, min(r, 4)))))
    return Template(g, r, masks)


def test_materialize_rows_match_product_oracle():
    rng = random.Random(0x5E1EC7)
    for _ in range(120):
        t = _oracle_template(rng)
        rows = materialize_rows(t)
        assert rows.shape[1] == 6
        assert sorted(map(tuple, rows.tolist())) == brute_rainbow_rows(t)
    # colour 64 is bit 63 of the used-colour word
    top = 1 << 63
    masks = [top | 0b1, top | 0b10, 0b110, 0b1100, top | 0b11000, 0b110000]
    t = Template(complete_graph(4), 64, masks)
    want = brute_rainbow_rows(t)
    assert any(v % 64 == 63 for row in want for v in row)
    assert sorted(map(tuple, materialize_rows(t).tolist())) == want
    assert len(want) == count_rainbow_copies(t)


def test_k4_blocks_count_like_one_block(monkeypatch):
    # every K4 its own block, then K4s joined into blocks of _BLOCK_ROWS,
    # against all the rows counted as one block
    rng = random.Random(0xB10C)
    cases = []
    for _ in range(150):
        t = _oracle_template(rng)
        rows = materialize_rows(t)
        cases.append((t, rows, max_codegrees_from_rows(rows, t.graph.edge_count * t.r)))
    assert sum(want != (0, 0, 0, 0, 0) for _, _, want in cases) >= 20
    for block_rows in (1, containers._BLOCK_ROWS):
        monkeypatch.setattr(containers, "_BLOCK_ROWS", block_rows)
        for t, rows, want in cases:
            base = t.graph.edge_count * t.r
            blocks = containers._k4_blocks(containers._k4_rows(t))
            assert max_codegrees_from_rows(blocks, base) == want
            stats, held = build_rainbow_hypergraph(t, materialize=True)
            assert stats.max_codegrees == want and np.array_equal(held, rows)
            assert build_rainbow_hypergraph(t)[0].max_codegrees == want
    # complete templates on the acceptance grid; criterion 05 counts the
    # 9,979,200 rows of (6, 12) as one block against the same closed form
    for n, r in CODEGREE_GRID:
        t = complete_template(complete_graph(n), r)
        base = t.graph.edge_count * r
        got = max_codegrees_from_rows(containers._k4_blocks(containers._k4_rows(t)), base)
        assert got == structural_max_codegrees(n, r)
        if count_rainbow_copies(t) < 10 ** 6:
            assert max_codegrees_from_rows(materialize_rows(t), base) == got


def test_materialized_counting_holds_one_block_beyond_the_rows():
    # the rows are returned; counting them K4 by K4 needs a few MB more,
    # however many K4s there are
    for n in (5, 6):
        t = complete_template(complete_graph(n), 9)
        count_rainbow_copies(t)
        tracemalloc.start()
        try:
            stats, rows = build_rainbow_hypergraph(t, materialize=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.max_codegrees == structural_max_codegrees(n, 9)
        assert peak < rows.nbytes + 8 * 2 ** 20


def _row_order_template(rng: random.Random) -> Template:
    """A host on 5-7 vertices, each edge present with probability 0.8,
    relabelled by a random permutation, with lists of random colours out of
    r = 6..8: one in five full, one in ten empty."""
    n, r = rng.randint(5, 7), rng.randint(6, 8)
    perm = list(range(n))
    rng.shuffle(perm)
    g = Graph(n, [(perm[u], perm[v]) for u, v in itertools.combinations(range(n), 2)
                  if rng.random() < 0.8])
    full = (1 << r) - 1
    masks = [rng.choice((full, full, 0)) if rng.random() < 0.3
             else rng.getrandbits(r) | rng.getrandbits(r) for _ in range(g.edge_count)]
    return Template(g, r, masks)


def test_materialized_rows_increase_k4_by_k4():
    # rows are not sorted after the fact: each must come out increasing, the
    # copies of each K4 together, K4s in clique_edge_ids order
    rng = random.Random(0x0DE7)
    nonempty = 0
    for _ in range(40):
        t = _row_order_template(rng)
        rows = materialize_rows(t)
        eids = clique_edge_ids(t.graph, 4)
        sizes = count_distinct_choices([[t.masks[e] for e in q] for q in eids])
        nonempty += len(rows) > 0
        assert len(rows) == sum(sizes)
        assert (rows[:, 1:] > rows[:, :-1]).all()
        want = np.repeat(np.array(eids, dtype=np.int64).reshape(-1, 6), sizes, axis=0)
        assert np.array_equal(rows // t.r, want)
    assert nonempty >= 20


def test_materialization_cap():
    t = complete_template(complete_graph(6), 12)
    with pytest.raises(CapExceeded):
        materialize_rows(t, cap=10 ** 5)
    stats, rows = build_rainbow_hypergraph(t)  # structural path: no refusal
    assert stats.max_codegrees == (15120, 1512, 56, 7, 1)
    assert rows is None


def test_stats_only_flag():
    # non-complete template over the cap: stats_only yields partial stats
    g = complete_graph(6)
    masks = [(1 << 12) - 1] * g.edge_count
    masks[0] = (1 << 11) - 1  # one list short: structural path unavailable
    t = Template(g, 12, masks)
    with pytest.raises(CapExceeded):
        build_rainbow_hypergraph(t, cap=10 ** 4)
    stats, rows = build_rainbow_hypergraph(t, cap=10 ** 4, stats_only=True)
    assert stats.max_codegrees is None
    assert stats.edge_count > 10 ** 4
    assert rows is None


def test_full_list_codegrees_match_rows_on_every_small_host():
    # the closed form for full lists on any host against the row counter
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            for r in range(4, 9):
                t = complete_template(g, r)
                stats, rows = build_rainbow_hypergraph(t)
                assert rows is None
                base = g.edge_count * r
                assert stats.max_codegrees == max_codegrees_from_rows(materialize_rows(t), base)


def test_full_lists_on_any_host_need_no_rows():
    # K7 minus an edge: 4 K4s through a triangle away from the missing edge;
    # the closed form answers past a cap the rows could not meet
    t = complete_template(Graph(7, [e for e in complete_graph(7).edges if e != (0, 1)]), 12)
    stats, rows = build_rainbow_hypergraph(t, cap=10)
    assert stats.edge_count > 10 and rows is None
    assert stats.max_codegrees == (
        4 * falling_factorial(10, 4), 4 * falling_factorial(9, 3), falling_factorial(8, 2), 7, 1
    )
    with pytest.raises(CapExceeded):
        build_rainbow_hypergraph(t, materialize=True, cap=10)


def test_is_complete_detector(k4):
    assert is_complete_on_complete_host(complete_template(k4, 6))
    assert not is_complete_on_complete_host(
        Template(k4, 6, [0b111110] + [0b111111] * 5)
    )
    assert not is_complete_on_complete_host(complete_template(turan_graph(5, 3), 6))


# ---------------------------------------------------------------------------
# the weighted co-degree functional


def test_delta_tau_zero_codegrees():
    stats = RainbowHypergraphStats(36, 720, Fraction(120), (0, 0, 0, 0, 0))
    assert delta_tau(stats, Fraction(1, 2)) == 0


def test_delta_tau_exact_value(k4):
    stats, _ = build_rainbow_hypergraph(complete_template(k4, 6))
    val = delta_tau(stats, Fraction(1, 2))
    # independent recomputation, reversed summation order and no shortcuts
    deltas = stats.max_codegrees
    weights = [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
    acc = Fraction(0)
    for i in (4, 3, 2, 1, 0):
        acc += weights[i] * deltas[i] / (Fraction(120) * Fraction(1, 2) ** (i + 1))
    assert val == 2 ** 14 * acc
    assert val > 0


def test_delta_tau_halves_when_tau_doubles(k4):
    stats, _ = build_rainbow_hypergraph(complete_template(k4, 6))
    assert delta_tau(stats, Fraction(1)) < delta_tau(stats, Fraction(1, 2))


def test_delta_tau_errors(k4):
    stats = RainbowHypergraphStats(36, 0, Fraction(0), (0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        delta_tau(stats, Fraction(1, 2))
    good, _ = build_rainbow_hypergraph(complete_template(k4, 6))
    with pytest.raises(ValueError):
        delta_tau(good, Fraction(0))
    partial = RainbowHypergraphStats(36, 720, Fraction(120), None)
    with pytest.raises(ValueError):
        delta_tau(partial, Fraction(1, 2))


# ---------------------------------------------------------------------------
# hypothesis constants and the threshold search


def test_epsilon_at_perfect_cube():
    rep = container_hypothesis_check(10 ** 6, 12)
    assert rep.details["epsilon_cubed"] == Fraction(1, (110 ** 3) * 10 ** 6)
    lo, hi = rep.details["epsilon_interval"]
    assert lo <= Fraction(1, 11000) <= hi
    assert hi - lo < Fraction(1, 10 ** 30)


def test_tau_condition_fails_at_desk_scale():
    for n in (10, 10 ** 6, 10 ** 12):
        assert not container_hypothesis_check(n, 12).tau_ok


def test_threshold_constants():
    assert TAU_THRESHOLD == Fraction(1, 1200 * 720 ** 2)
    assert DELTA_BOUND_DENOM == 12 * 720
    assert C_ELL_BOUND == 1000 * 6 * 720 ** 3


def test_vacuous_below_six_colors():
    rep = container_hypothesis_check(100, 5)
    assert rep.vacuous
    assert rep.details["hypergraph_edges"] == 0


def test_min_n_boundary_and_monotonicity():
    n_min = min_n_for_container(12)
    assert container_hypothesis_check(n_min, 12).passes
    assert not container_hypothesis_check(n_min - 1, 12).passes
    for extra in (1, 7, 10 ** 6):
        assert container_hypothesis_check(n_min + extra, 12).passes


def test_min_n_nonincreasing_in_r():
    vals = [min_n_for_container(r) for r in (12, 13, 16, 24, 40, 64)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_min_n_is_the_same_under_saxton_thomason_weights(monkeypatch):
    # 2^-(j-2) here, 2^-C(j-1,2) in Saxton-Thomason: tau binds, so the
    # threshold does not move
    rs = (6, 12, 64)
    ours = [min_n_for_container(r) for r in rs]
    stats, _ = build_rainbow_hypergraph(complete_template(complete_graph(5), 7))
    before = delta_tau(stats, Fraction(1, 2))
    monkeypatch.setattr(
        containers, "DELTA_WEIGHTS", tuple(Fraction(1, 2 ** comb(j - 1, 2)) for j in range(2, 7))
    )
    assert delta_tau(stats, Fraction(1, 2)) < before  # the other weights are in use
    assert [min_n_for_container(r) for r in rs] == ours


def doubling_min_n(r: int) -> int:
    """Oracle: least n passing both conditions, by doubling from n = 1 and
    bisecting, with both conditions evaluated at every probe."""

    def passes(n):
        _, tau_ok, delta_ok = hypothesis_flags(n, r)
        return tau_ok and delta_ok

    hi = 1
    while not passes(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_min_n_matches_the_doubling_search():
    for r in (6, 7, 12, 64, 1000):
        n_min = min_n_for_container(r)
        assert n_min == doubling_min_n(r)
        assert hypothesis_flags(n_min, r)[1:] == (True, True)


def test_min_n_searches_delta_above_the_tau_bound(monkeypatch):
    # The functional over its bound tends to DELTA_LEAD / 2^18 from above as
    # n grows, so a lead just under 16 times the default makes delta fail
    # where tau first holds and hold further up.
    tau_bound = min_n_for_container(12)  # n_tau + 1: delta holds there by default
    monkeypatch.setattr(containers, "DELTA_LEAD", 2 ** 14 / (Fraction(1, 16) + Fraction(1, 10 ** 9)))
    n_min = min_n_for_container(12)
    assert n_min > tau_bound
    assert not hypothesis_flags(tau_bound, 12)[2]
    assert n_min == doubling_min_n(12)


def interval_delta_holds(n: int, r: int) -> bool:
    """Oracle: the delta condition by a hand-rolled interval sum, term by
    term over (lo, hi) pairs, refined until the two sides separate."""
    deltas = structural_max_codegrees(n, r)
    if all(d == 0 for d in deltas):
        return True
    davg = structural_average_degree(n, r)
    cc = container_constants(n, r)
    d = 40
    while d <= 1400:
        tau = cc.tau_interval(d)
        lhs = (Fraction(0), Fraction(0))
        for i, (w, dd) in enumerate(zip(containers.DELTA_WEIGHTS, deltas)):
            c = containers.DELTA_LEAD * w * dd / davg
            lhs = (lhs[0] + c / tau[1] ** (i + 1), lhs[1] + c / tau[0] ** (i + 1))
        eps = cc.epsilon_interval(d)
        rhs = (eps[0] / DELTA_BOUND_DENOM, eps[1] / DELTA_BOUND_DENOM)
        if lhs[1] <= rhs[0]:
            return True
        if lhs[0] > rhs[1]:
            return False
        d *= 2
    raise AssertionError("interval sum undecided")


DELTA_ORACLE_GRID = [(n, r) for r in (6, 7, 12, 64, 1000) for n in (N_TAU + 1, N_TAU + 2, 10 * N_TAU)]


def test_delta_condition_matches_the_interval_sum():
    for n, r in DELTA_ORACLE_GRID:
        assert containers._delta_condition_holds(n, r) == interval_delta_holds(n, r), (n, r)


def test_delta_condition_matches_the_interval_sum_where_delta_binds(monkeypatch):
    monkeypatch.setattr(containers, "DELTA_LEAD", 2 ** 14 / (Fraction(1, 16) + Fraction(1, 10 ** 9)))
    verdicts = set()
    for n, r in DELTA_ORACLE_GRID:
        verdict = containers._delta_condition_holds(n, r)
        assert verdict == interval_delta_holds(n, r), (n, r)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_tau_condition_is_the_integer_bound():
    assert N_TAU + 1 == MIN_N_CONTAINER_R12
    for r in (3, 6, 12, 64, 1000):
        assert not hypothesis_flags(N_TAU, r)[1]
        assert hypothesis_flags(N_TAU + 1, r)[1]
    # the sixth powers the bound was cleared from
    assert container_constants(N_TAU, 12).tau_sixth >= TAU_THRESHOLD ** 6
    assert container_constants(N_TAU + 1, 12).tau_sixth < TAU_THRESHOLD ** 6


def test_fewer_than_three_colors():
    # epsilon has (r-1)(r-2) in its denominator; the flags never need it
    for r in (0, 1, 2):
        with pytest.raises(ValueError):
            container_constants(10, r)
        with pytest.raises(ValueError):
            container_hypothesis_check(10, r)
        assert hypothesis_flags(10, r) == (True, False, True)
        assert hypothesis_flags(N_TAU + 1, r) == (True, True, True)
    for check in (hypothesis_flags, container_hypothesis_check):
        with pytest.raises(ValueError):
            check(0, 12)


def test_min_n_requires_six_colors():
    with pytest.raises(ValueError):
        min_n_for_container(5)


def test_conclusion_exponent_reported_at_large_n():
    # the enclosure contains c * N * tau * ln(1/eps) * ln(1/tau), with
    # N = r * C(n, 2) hypergraph vertices, evaluated at high precision
    mpmath = pytest.importorskip("mpmath")
    r = 12
    n_min = min_n_for_container(r)
    for n in (n_min, n_min * 10 ** 30):
        lo, hi = container_hypothesis_check(n, r).details["conclusion_exponent"]
        assert 0 < lo <= hi
        assert (hi - lo) / lo < Fraction(1, 10 ** 30)
        cc = container_constants(n, r)
        with mpmath.workprec(512):
            tau = mpmath.root(mpmath.mpf(cc.tau_sixth.numerator) / cc.tau_sixth.denominator, 6)
            eps = mpmath.cbrt(
                mpmath.mpf(cc.epsilon_cubed.numerator) / cc.epsilon_cubed.denominator
            )
            v = C_ELL_BOUND * r * comb(n, 2) * tau * mpmath.log(1 / eps) * mpmath.log(1 / tau)
            slack = v * mpmath.mpf(2) ** -400  # mpmath's own rounding
            assert mpmath.mpf(lo.numerator) / lo.denominator <= v + slack, n
            assert v - slack <= mpmath.mpf(hi.numerator) / hi.denominator, n


def test_tau_sixth_matches_interval(k4):
    cc = container_constants(10 ** 6, 12)
    lo, hi = cc.tau_interval(30)
    assert lo ** 6 <= cc.tau_sixth <= hi ** 6
