import itertools
from math import comb
from math import perm as falling_factorial

import pytest

from conftest import cycle_graph
from rtlab.counting import (
    _blocks,
    _clique_set_graphs,
    _ie_block_weights,
    _ie_estimate,
    _independent_partitions,
    bounds_compare,
    brute_force_count,
    count_colorings,
    partition_polynomial,
    partition_weights,
    rho_max_search,
    stirling2_row,
)
from rtlab.errors import CapExceeded, UnsupportedSizeError
from rtlab.graphs import (
    Graph,
    clique_edge_ids,
    complete_graph,
    count_cliques,
    enumerate_graphs,
    parse_graph6,
    turan_graph,
    write_graph6,
)

# ---------------------------------------------------------------------------
# the reference enumeration the engine is compared against
#
# It walks the set partitions of m placed edges as restricted growth strings,
# at most Bell(m) states; a branch dies as soon as some k-clique has all
# C(k,2) edges placed into C(k,2) distinct classes.  Once two edges of a
# clique share a class the clique can never become rainbow, so its tracking
# is switched off for the whole subtree.  Edges are placed in order of
# decreasing k-clique participation so that constraints bite early.  The
# input is the engine's: a block's edge count and one bitmask per clique over
# the placement positions.


def _enumerate_weights(m, masks, max_classes) -> list:
    """Reference count of the valid partitions of m placed edges into at most
    max_classes classes, bucketed by class count; returns a list of length
    m+1."""
    max_classes = min(max_classes, m)
    edge_cliques = [[q for q, cm in enumerate(masks) if cm >> i & 1] for i in range(m)]
    clique_sizes = [cm.bit_count() for cm in masks]
    nq = len(masks)
    cl_mask = [0] * nq
    cl_cnt = [0] * nq
    cl_safe = [False] * nq
    weights = [0] * (m + 1)

    def place(i: int, c: int):
        """Apply one placement; returns (ok, trail)."""
        trail = []
        bit = 1 << c
        for q in edge_cliques[i]:
            if cl_safe[q]:
                continue
            if cl_mask[q] & bit:
                cl_safe[q] = True
                trail.append((q, True, 0))
            else:
                cl_mask[q] |= bit
                cl_cnt[q] += 1
                trail.append((q, False, bit))
                if cl_cnt[q] == clique_sizes[q]:
                    return False, trail
        return True, trail

    def unplace(trail):
        for q, was_safe, bit in reversed(trail):
            if was_safe:
                cl_safe[q] = False
            else:
                cl_mask[q] ^= bit
                cl_cnt[q] -= 1

    def rec(i: int, used: int):
        if i == m:
            weights[used] += 1
            return
        top = used + 1 if used < max_classes else used
        for c in range(top):
            ok, trail = place(i, c)
            if ok:
                rec(i + 1, used + 1 if c == used else used)
            unplace(trail)

    rec(0, 0)
    return weights


def _constraint_index(g, k):
    """(m, clique masks) of the whole edge set, free edges included, placed
    by decreasing k-clique participation then edge id: the undecomposed
    input of the reference enumeration."""
    eid_sets = clique_edge_ids(g, k)
    participation = [0] * g.edge_count
    for eids in eid_sets:
        for e in eids:
            participation[e] += 1
    order = sorted(range(g.edge_count), key=lambda e: (-participation[e], e))
    bit = {e: 1 << pos for pos, e in enumerate(order)}
    return g.edge_count, [sum(bit[e] for e in eids) for eids in eid_sets]


# ---------------------------------------------------------------------------
# the oracle itself, plus a second pure-python oracle for tiny cases


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def pure_python_count(g, r, k=4):
    eids = [
        tuple(g.edge_id(u, v) for u, v in itertools.combinations(q, 2))
        for q in itertools.combinations(range(g.n), k)
        if all(g.has_edge(u, v) for u, v in itertools.combinations(q, 2))
    ]
    good = 0
    for coloring in itertools.product(range(r), repeat=g.edge_count):
        if not any(len({coloring[e] for e in q}) == comb(k, 2) for q in eids):
            good += 1
    return good


def test_brute_force_examples(k4):
    assert brute_force_count(k4, 2, 4) == 64
    assert brute_force_count(k4, 6, 4) == 45936
    assert brute_force_count(path_graph(3), 12, 4) == 144


def test_brute_force_matches_pure_python(k4):
    for r in range(1, 5):
        assert brute_force_count(k4, r, 4) == pure_python_count(k4, r)
    g = Graph.from_mask(5, 0b1010110101)
    for r in (2, 3):
        assert brute_force_count(g, r, 4) == pure_python_count(g, r)


def test_brute_force_cap():
    with pytest.raises(CapExceeded) as exc:
        brute_force_count(complete_graph(5), 12, 4, cap=10 ** 6)
    assert exc.value.estimate == 12 ** 10


# ---------------------------------------------------------------------------
# count_colorings


def test_count_closed_forms_k4(k4):
    for r in range(1, 14):
        expect = r ** 6 - falling_factorial(r, 6)
        assert count_colorings(k4, r, 4) == expect
    assert count_colorings(k4, 5, 4) == 5 ** 6
    assert count_colorings(k4, 6, 4) == 45936
    assert count_colorings(k4, 7, 4) == 112609


def test_count_turan_hosts():
    for n in range(0, 9):
        g = turan_graph(n, 3)
        for r in (1, 6, 12, 13):
            assert count_colorings(g, r, 4) == r ** g.edge_count


def test_count_oracle_equivalence_n4(classes4):
    for g in classes4:
        for r in range(1, 9):
            assert count_colorings(g, r, 4) == brute_force_count(g, r, 4)


def test_count_oracle_equivalence_n5(classes5):
    # r >= 6 makes count_colorings enumerate; r^m <= 10^6 keeps brute force small
    checked = 0
    for g in classes5:
        for r in (6, 7):
            if r ** g.edge_count <= 10 ** 6:
                assert count_colorings(g, r, 4) == brute_force_count(g, r, 4)
                checked += count_cliques(g, 4) > 0
    assert checked >= 2


def test_count_rejects_bad_params(k4):
    with pytest.raises(ValueError):
        count_colorings(k4, 0, 4)
    with pytest.raises(UnsupportedSizeError):
        count_colorings(k4, 65, 4)
    with pytest.raises(ValueError):
        count_colorings(k4, 6, 2)
    with pytest.raises(ValueError):
        partition_weights(k4, 1)


def test_count_gallai_triangle_case():
    k3 = complete_graph(3)
    for r in range(1, 10):
        assert count_colorings(k3, r, 3) == r ** 3 - falling_factorial(r, 3)
        assert count_colorings(k3, r, 3) == brute_force_count(k3, r, 3)
    k4 = complete_graph(4)
    for r in (2, 3, 4):
        assert count_colorings(k4, r, 3) == brute_force_count(k4, r, 3)


def test_count_color_symmetry(k4):
    # fixing the color of the first edge splits the count evenly
    for r in (6, 7):
        total = count_colorings(k4, r, 4)
        eids = [tuple(range(6))]
        fixed = 0
        for rest in itertools.product(range(r), repeat=5):
            coloring = (0,) + rest
            if not any(len({coloring[e] for e in q}) == 6 for q in eids):
                fixed += 1
        assert fixed * r == total


def test_count_monotone_in_r(k4, k5):
    for g in (k4, k5, cycle_graph(5)):
        prev = None
        for r in range(1, 13):
            cur = count_colorings(g, r, 4)
            if prev is not None and g.edge_count >= 1:
                assert cur > prev
            prev = cur


def test_ie_block_weights_match_reference_on_k5(k5):
    # inclusion-exclusion over the block's 2^5 K4 sets
    (m, masks), = _blocks(k5, 4)[1]
    for top in (7, 10):
        assert _ie_block_weights(m, masks, top) == _enumerate_weights(m, masks, top)


def test_count_work_cap(k5):
    with pytest.raises(CapExceeded):
        count_colorings(k5, 7, 4, work_cap=10)


# ---------------------------------------------------------------------------
# partition polynomial


def test_polynomial_k4(k4):
    poly = partition_polynomial(k4, 4)
    assert poly.coeffs == (1, 31, 90, 65, 15, 0)
    row = stirling2_row(6)
    assert poly.coeffs[:5] == tuple(row[1:6])
    for r in range(1, 14):
        assert poly.evaluate(r) == count_colorings(k4, r, 4)


def test_polynomial_triangle_unconstrained():
    poly = partition_polynomial(complete_graph(3), 4)
    assert poly.coeffs == (1, 3, 1)


def test_polynomial_consistency_all_n5_classes(classes5):
    for g in classes5:
        poly = partition_polynomial(g, 4)
        for r in range(1, 14):
            assert poly.evaluate(r) == count_colorings(g, r, 4)


def test_polynomial_unconstrained_is_stirling(classes5):
    for g in classes5:
        if g.edge_count and not any(
            all(g.has_edge(u, v) for u, v in itertools.combinations(q, 2))
            for q in itertools.combinations(range(g.n), 4)
        ):
            poly = partition_polynomial(g, 4)
            row = stirling2_row(g.edge_count)
            assert poly.coeffs == tuple(row[1:])


def test_partition_enumeration_matches_stirling_without_shortcut():
    # run the raw enumerator with no constraints; it must count Stirling rows
    for m in (0, 1, 4, 7, 9):
        weights = _enumerate_weights(m, [], m)
        row = stirling2_row(m)
        expect = [row[0] if m == 0 else 0] + list(row[1:])
        assert weights == expect


def test_partition_identity_total_count():
    # sum_j S2(m, j) r^(j falling) == r^m
    for m in range(0, 11):
        row = stirling2_row(m)
        for r in (1, 2, 5, 13):
            total = sum(row[j] * falling_factorial(r, j) for j in range(m + 1))
            assert total == r ** m


def test_polynomial_eval_nondecreasing_in_r(classes4):
    for g in classes4:
        poly = partition_polynomial(g, 4)
        vals = [poly.evaluate(r) for r in range(0, 10)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_polynomial_edge_cap():
    # K4-free: 21 free edges, nothing to enumerate, so the default cap passes
    poly = partition_polynomial(turan_graph(8, 3), 4)
    assert poly.coeffs == tuple(stirling2_row(21)[1:])
    # K6 is one 15-edge block: the inclusion-exclusion bound over its 2^15
    # K4 sets exceeds the default work cap
    with pytest.raises(CapExceeded):
        partition_polynomial(complete_graph(6), 4)


def test_partition_weights_max_classes_truncation(k4):
    full = partition_weights(k4, 4)
    trunc = partition_weights(k4, 4, max_classes=3)
    assert trunc[:4] == full[:4]
    assert all(w == 0 for w in trunc[4:])


def test_blocks_place_edges_by_participation(k5):
    free, ((m, masks),) = _blocks(k5, 4)
    assert free == 0 and m == 10
    assert len(masks) == 5 and all(cm.bit_count() == 6 for cm in masks)
    # K5 is edge-transitive: every edge sits in 3 of the 5 K4s
    assert [sum(cm >> pos & 1 for cm in masks) for pos in range(m)] == [3] * 10
    # T3(6)+e: the added edge lies in all 4 K4s and takes position 0
    (m, masks), = _blocks(parse_graph6(T3_6_E), 4)[1]
    per_position = [sum(cm >> pos & 1 for cm in masks) for pos in range(m)]
    assert per_position[0] == 4 and per_position == sorted(per_position, reverse=True)


# ---------------------------------------------------------------------------
# decomposition into free edges and blocks, against the undecomposed kernel

K4_R12 = 12 ** 6 - falling_factorial(12, 6)
TWO_K4 = "F~CWw"  # two K4s sharing a vertex: two 6-edge blocks
K4_PATH = "H~CGGC@"  # a K4 plus a pendant path of 5 free edges


def undecomposed_weights(g, k, max_classes=None):
    """The kernel run once over the whole edge set, free edges included."""
    m = g.edge_count
    top = m if max_classes is None else min(max_classes, m)
    return tuple(_enumerate_weights(*_constraint_index(g, k), top))


def test_blocks_match_undecomposed_all_n5_classes():
    for n in range(6):
        for g in enumerate_graphs(n):
            for k in (3, 4):
                assert partition_weights(g, k) == undecomposed_weights(g, k), (n, k)


def test_blocks_match_undecomposed_n6_k4_hosts(classes6):
    hosts = [g for g in classes6 if g.edge_count <= 9 and count_cliques(g, 4)]
    assert len(hosts) == 13
    for g in hosts:
        assert partition_weights(g, 4) == undecomposed_weights(g, 4)


def test_blocks_match_brute_force_triangles():
    for n in range(6):
        for g in enumerate_graphs(n):
            for r in (3, 4):
                assert count_colorings(g, r, 3) == brute_force_count(g, r, 3)


def test_block_structure():
    free, blocks = _blocks(parse_graph6(TWO_K4), 4)
    assert free == 0 and [m for m, _ in blocks] == [6, 6]
    free, blocks = _blocks(parse_graph6(K4_PATH), 4)
    assert free == 5 and [m for m, _ in blocks] == [6]
    bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    free, blocks = _blocks(bowtie, 3)
    assert free == 0 and [m for m, _ in blocks] == [3, 3]
    assert _blocks(turan_graph(8, 3), 4) == (21, [])


def test_two_block_host():
    g = parse_graph6(TWO_K4)
    # the undecomposed kernel visits ~Bell(12) states at k=4 without a low
    # class cap; at k=3 every triangle prunes, so all caps stay cheap
    for k, tops in ((4, (0, 1, 2, 3)), (3, (0, 1, 3, 5, 8, 12))):
        for top in tops:
            assert partition_weights(g, k, max_classes=top) == undecomposed_weights(g, k, top)
    poly = partition_polynomial(g, 4)
    assert poly.evaluate(0) == 0
    for r in range(1, 15):
        assert poly.evaluate(r) == count_colorings(g, r, 4)


def test_block_products_pin_counts():
    assert count_colorings(parse_graph6(TWO_K4), 12, 4) == K4_R12 ** 2
    assert count_colorings(parse_graph6(K4_PATH), 12, 4) == K4_R12 * 12 ** 5


def test_work_cap_sums_block_estimates():
    # free edges cost nothing; a lone K4 block costs 2 inclusion-exclusion
    # leaves (S empty, and S = {K4} whose graph is K6), far below Bell(6)
    assert partition_weights(parse_graph6(K4_PATH), 4, work_cap=2)
    g = parse_graph6(TWO_K4)
    assert count_colorings(g, 12, 4, work_cap=2 * 2) == K4_R12 ** 2
    with pytest.raises(CapExceeded) as exc:
        count_colorings(g, 12, 4, work_cap=2 * 2 - 1)
    assert exc.value.estimate == 2 * 2
    assert rho_max_search(7, 12, 4, graphs=[g], work_cap=2 * 2).best_count == K4_R12 ** 2
    with pytest.raises(CapExceeded) as exc:
        rho_max_search(7, 12, 4, graphs=[g], work_cap=2 * 2 - 1)
    assert exc.value.estimate == 2 * 2
    # T3(7) plus an edge inside its 3-vertex part: 4 K4s forming one 13-edge
    # block next to 4 free edges.  At r=12 the reference enumeration's bound
    # is Bell(13) - 1; the inclusion-exclusion estimate is far smaller
    t = turan_graph(7, 3)
    g = Graph(7, t.edges + ((0, 1),))
    assert count_cliques(g, 4) == 4
    assert sum(stirling2_row(13)) - 1 == 27644436
    est = 972221
    assert count_colorings(g, 12, 4, work_cap=est) == 886580275315802112 == T3_6_E_R12 * 12 ** 4
    with pytest.raises(CapExceeded) as exc:
        count_colorings(g, 12, 4, work_cap=est - 1)
    assert exc.value.estimate == est
    assert rho_max_search(7, 12, 4, graphs=[g], work_cap=est).best_count == 886580275315802112
    with pytest.raises(CapExceeded) as exc:
        rho_max_search(7, 12, 4, graphs=[g], work_cap=est - 1)
    assert exc.value.estimate == est


def test_work_cap_on_a_triangle_host(k4):
    # the 4 triangles of K4 form one 6-edge block; its 2^4 triangle sets
    # bound 196 inclusion-exclusion leaves, just under Bell(6) = 203
    est = 196
    want = 23904  # no rainbow triangle in 12 colors; brute force agrees
    assert count_colorings(k4, 12, 3, work_cap=est) == want
    with pytest.raises(CapExceeded) as exc:
        count_colorings(k4, 12, 3, work_cap=est - 1)
    assert exc.value.estimate == est
    assert rho_max_search(4, 12, 3, graphs=[k4], work_cap=est).best_count == want
    with pytest.raises(CapExceeded) as exc:
        rho_max_search(4, 12, 3, graphs=[k4], work_cap=est - 1)
    assert exc.value.estimate == est


# ---------------------------------------------------------------------------
# the inclusion-exclusion engine against the reference enumeration

T3_6_E = "E}~o"  # T3(6) plus an edge inside a part: one 13-edge block
T3_6_E_R12 = 42755607412992


def test_engines_agree_on_every_block_n5():
    blocks = 0
    for n in range(6):
        for g in enumerate_graphs(n):
            for k in (3, 4):
                for m, masks in _blocks(g, k)[1]:
                    blocks += 1
                    for top in range(m + 1):
                        assert _ie_block_weights(m, masks, top) == _enumerate_weights(
                            m, masks, top
                        ), (write_graph6(g), k, top)
    assert blocks == 32


def test_ie_engine_pins_t3_6_plus_edge():
    g = parse_graph6(T3_6_E)
    free, blocks = _blocks(g, 4)
    assert free == 0 and [m for m, _ in blocks] == [13]
    assert count_colorings(g, 12, 4) == T3_6_E_R12


def test_ie_estimate_bounds_its_leaves():
    hosts = [(g, k) for n in range(6) for g in enumerate_graphs(n) for k in (3, 4)]
    for g, k in hosts + [(parse_graph6(T3_6_E), 4)]:
        for m, masks in _blocks(g, k)[1]:
            leaves = sum(
                sum(_independent_partitions(vertices, m))
                for _, _, vertices in _clique_set_graphs(masks)
            )
            assert _ie_estimate(masks, 10 ** 12) >= leaves >= 2 ** len(masks)


def test_ie_estimate_stops_past_its_bound():
    (_, masks), = _blocks(parse_graph6(T3_6_E), 4)[1]
    full = _ie_estimate(masks, 10 ** 12)
    assert full == _ie_estimate(masks, full) > _ie_estimate(masks, 100) > 100
    assert _ie_estimate(masks, 15) == 16  # 2^4 clique sets pass 15 unsummed


# ---------------------------------------------------------------------------
# bounds comparison


def test_bounds_compare_examples():
    v11 = bounds_compare(11, 4)
    assert v11.verdict == "clique-coloring" and (v11.clique_side, v11.turan_side) == (125, 121)
    v12 = bounds_compare(12, 4)
    assert v12.verdict == "turan" and v12.turan_side == 144
    assert bounds_compare(4, 3).verdict == "turan"
    assert bounds_compare(3, 3).verdict == "clique-coloring"  # 2^2 = 4 > 3


def test_bounds_compare_switch_at_12():
    for r in range(1, 65):
        expect = "clique-coloring" if r <= 11 else "turan"
        assert bounds_compare(r, 4).verdict == expect


# ---------------------------------------------------------------------------
# extremal search


def test_search_n4_r5(classes4, k4):
    rep = rho_max_search(4, 5, 4)
    assert rep.best_graph6 == write_graph6(k4)
    assert rep.best_count == 5 ** 6
    assert len(rep.table) == 11
    assert all(int(cnt) >= 1 for _, cnt in rep.table)


def test_search_counts_each_code_once(k4):
    # repeated codes are one class, kept where first seen; two labellings
    # of the path P4 stay two classes, there being no canonical form
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    p4_relabelled = Graph(4, [(0, 1), (0, 2), (2, 3)])
    rep = rho_max_search(4, 6, 4, graphs=[p4, k4, p4, p4_relabelled, k4])
    codes = [write_graph6(g) for g in (p4, k4, p4_relabelled)]
    assert len(set(codes)) == 3
    assert [code for code, _ in rep.table] == codes
    assert rep.table == rho_max_search(4, 6, 4, graphs=[p4, k4, p4_relabelled]).table
    assert rep.best_graph6 == write_graph6(k4)


def test_search_n4_r12(k4):
    rep = rho_max_search(4, 12, 4)
    assert rep.best_count == max(12 ** 5, 12 ** 6 - falling_factorial(12, 6))
    assert rep.best_count == 2320704
    assert rep.best_graph6 == write_graph6(k4)
    assert rep.turan_count == 12 ** 5
    assert rep.best_attains_turan_bound


def test_search_n5_r6_reports_comparison():
    rep = rho_max_search(5, 6, 4)
    assert len(rep.table) == 34
    assert rep.turan_exponent == 8
    assert rep.turan_count == 6 ** 8
    assert rep.best_count >= rep.turan_count
    assert rep.best_count == max(int(c) for _, c in rep.table)


def test_search_deterministic_across_workers():
    a = rho_max_search(4, 12, 4, workers=1)
    b = rho_max_search(4, 12, 4, workers=2)
    assert a == b


def test_search_tie_break_lexicographic():
    # at r=1 every class has exactly one coloring: tie broken by graph6
    rep = rho_max_search(3, 1, 4)
    assert rep.best_count == 1
    codes = [write_graph6(g) for g in __import__("rtlab.graphs", fromlist=["enumerate_graphs"]).enumerate_graphs(3)]
    assert rep.best_graph6 == min(codes)


def test_search_external_stream(k5):
    rep = rho_max_search(5, 6, 4, graphs=[k5, turan_graph(5, 3)])
    assert len(rep.table) == 2
    assert rep.best_count == max(count_colorings(k5, 6, 4), 6 ** 8)
    with pytest.raises(ValueError):
        rho_max_search(5, 6, 4, graphs=[complete_graph(4)])


def test_search_work_cap_refusal():
    with pytest.raises(CapExceeded) as exc:
        rho_max_search(6, 12, 4, work_cap=10 ** 5)
    assert exc.value.estimate > 10 ** 5


def test_search_rejects_empty_input():
    with pytest.raises(ValueError, match="no graphs to search"):
        rho_max_search(5, 6, 4, graphs=[])


def test_search_internal_cap():
    with pytest.raises(UnsupportedSizeError):
        rho_max_search(7, 6, 4)
