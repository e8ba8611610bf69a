import itertools
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_is_isomorphic, cycle_graph
from rtlab.errors import CapExceeded, Graph6ParseError, UnsupportedSizeError
from rtlab.graphs import (
    Graph,
    all_pairs,
    clique_edge_ids,
    cliques,
    closeness_to_kpartite,
    complete_graph,
    count_cliques,
    enumerate_graphs,
    extremal_number,
    graph6_codes,
    parse_graph6,
    turan_graph,
    write_graph6,
)

# ---------------------------------------------------------------------------
# Turan graphs and extremal numbers


def test_turan_examples():
    g = turan_graph(6, 3)
    assert g.edge_count == 12
    assert sorted(g.degree(v) for v in range(6)) == [4] * 6  # K_{2,2,2}
    assert turan_graph(5, 3).edge_count == 8
    assert turan_graph(4, 3).edge_count == 5


def test_turan_is_complete_multipartite_with_balanced_classes():
    for n in range(0, 12):
        for parts in range(1, 5):
            g = turan_graph(n, parts)
            # recover classes as maximal independent sets of non-neighbors
            cls = {}
            for v in range(n):
                for u in range(v):
                    if not g.has_edge(u, v) and cls.get(u) is not None:
                        cls[v] = cls[u]
                        break
                else:
                    cls[v] = len(set(cls.values())) if cls else 0
            sizes = defaultdict(int)
            for v in range(n):
                sizes[cls[v]] += 1
            if n:
                assert max(sizes.values()) - min(sizes.values()) <= 1
            for u, v in itertools.combinations(range(n), 2):
                assert g.has_edge(u, v) == (cls[u] != cls[v])


def test_extremal_number_examples():
    assert extremal_number(6, 4) == 12
    assert extremal_number(4, 4) == 5
    assert extremal_number(9, 4) == 27


def test_extremal_number_is_the_turan_edge_count():
    for k in range(2, 9):
        for n in range(65):
            assert extremal_number(n, k) == turan_graph(n, k - 1).edge_count


def test_extremal_number_past_the_graph_size_limit():
    # the closed form needs no graph, so n > 64 is accepted
    assert extremal_number(100, 4) == 3333
    assert extremal_number(399, 4) == 53067


def test_extremal_number_invalid():
    with pytest.raises(ValueError):
        extremal_number(5, 1)
    with pytest.raises(ValueError):
        extremal_number(-1, 4)
    with pytest.raises(ValueError):
        turan_graph(5, 0)


@pytest.mark.parametrize("k", [3, 4])
def test_turan_graph_is_clique_free_up_to_30(k):
    for n in range(0, 31):
        g = turan_graph(n, k - 1)
        assert extremal_number(n, k) == g.edge_count
        assert count_cliques(g, k) == 0


# ---------------------------------------------------------------------------
# clique counting


def test_count_cliques_examples(k6):
    assert count_cliques(k6, 4) == 15
    assert count_cliques(turan_graph(6, 3), 4) == 0
    assert count_cliques(cycle_graph(5), 3) == 0


def _naive_clique_count(g, k):
    cnt = 0
    for sub in itertools.combinations(range(g.n), k):
        if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
            cnt += 1
    return cnt


def test_count_cliques_matches_naive_enumeration(classes6):
    for g in classes6:
        for k in range(1, 7):
            assert count_cliques(g, k) == _naive_clique_count(g, k)


def test_cliques_listing_consistent(classes5):
    for g in classes5:
        for k in (3, 4):
            lst = cliques(g, k)
            assert len(lst) == count_cliques(g, k)
            assert len(set(lst)) == len(lst)
            for sub in lst:
                assert all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2))


def test_clique_edge_ids_follow_the_clique_listing(classes5):
    for g in classes5:
        for k in (3, 4, 5):
            ids = clique_edge_ids(g, k)
            assert len(ids) == len(cliques(g, k))
            for q, eids in zip(cliques(g, k), ids):
                assert [g.edges[e] for e in eids] == list(itertools.combinations(q, 2))


def test_count_cliques_k_above_n():
    assert count_cliques(complete_graph(3), 4) == 0


def test_has_edge_outside_vertex_range():
    k5 = complete_graph(5)
    assert k5.has_edge(0, 4) and not k5.has_edge(2, 2)
    # negative indices must not wrap, and large ones must not raise
    for u, v in ((-1, 0), (0, -1), (7, 0), (0, 7), (5, 5)):
        assert k5.has_edge(u, v) is False


# ---------------------------------------------------------------------------
# closeness to k-partite


def internal_edge_count(g, partition):
    """Edges whose endpoints share a class under the given assignment."""
    return sum(1 for u, v in g.edges if partition[u] == partition[v])


def _closeness_brute(g, k):
    best = g.edge_count
    for assign in itertools.product(range(k), repeat=g.n):
        best = min(best, internal_edge_count(g, assign))
    return best


def test_closeness_examples(k4, k6):
    assert closeness_to_kpartite(k4, 3).internal_edges == 1
    assert closeness_to_kpartite(turan_graph(9, 3), 3).internal_edges == 0
    res = closeness_to_kpartite(k6, 3)
    assert res.internal_edges == 3
    assert _closeness_brute(k6, 3) == 3  # independent exhaustive derivation


def test_closeness_witness_is_consistent(classes5):
    for g in classes5:
        for k in (2, 3):
            res = closeness_to_kpartite(g, k)
            assert internal_edge_count(g, res.partition) == res.internal_edges
            assert max(res.partition, default=0) < k
            assert res.internal_edges == _closeness_brute(g, k)


def _is_kpartite(g, k):
    return _closeness_brute(g, k) == 0


def test_closeness_zero_iff_kpartite(classes5):
    for g in classes5:
        for k in (2, 3):
            assert (closeness_to_kpartite(g, k).internal_edges == 0) == _is_kpartite(g, k)


def test_closeness_refuses_hosts_above_the_cap(k6):
    t3_15e = parse_graph6("N_B~vrw}F~~}~{~{^}?")  # T3(15) and one edge inside a class
    for g, k, cap in ((k6, 3, 4), (k6, 2, 5), (t3_15e, 3, 14), (complete_graph(64), 2, 14)):
        with pytest.raises(CapExceeded) as exc:
            closeness_to_kpartite(g, k, exact_cap=cap)
        assert (exc.value.estimate, exc.value.cap) == (g.n, cap)
    res = closeness_to_kpartite(t3_15e, 3, exact_cap=15)
    assert res.internal_edges == 1 == internal_edge_count(t3_15e, res.partition)
    assert closeness_to_kpartite(complete_graph(15), 2, exact_cap=15).internal_edges == 49


def test_closeness_degenerate():
    # the empty host and k = 1 need no search, so no cap refuses them
    assert closeness_to_kpartite(Graph(0, []), 3).internal_edges == 0
    assert closeness_to_kpartite(Graph(0, []), 3, exact_cap=-1).partition == ()
    g = complete_graph(3)
    assert closeness_to_kpartite(g, 1).internal_edges == 3
    assert closeness_to_kpartite(complete_graph(20), 1) == (190, (0,) * 20)


# ---------------------------------------------------------------------------
# enumeration of isomorphism classes


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)])
def test_enumerate_class_counts(n, count):
    assert sum(1 for _ in enumerate_graphs(n)) == count


def test_enumerate_rejects_large_n():
    with pytest.raises(UnsupportedSizeError):
        list(enumerate_graphs(7))


def test_enumerate_pairwise_non_isomorphic(classes5):
    for a, b in itertools.combinations(classes5, 2):
        assert not brute_force_is_isomorphic(a, b)


def test_enumerate_pairwise_non_isomorphic_n6_by_fingerprint(classes6):
    groups = defaultdict(list)
    for g in classes6:
        degrees = tuple(sorted(g.degree(v) for v in range(g.n)))
        groups[(degrees, *(count_cliques(g, k) for k in (3, 4, 5)))].append(g)
    # exact check only inside collisions of this isomorphism invariant
    for group in groups.values():
        for a, b in itertools.combinations(group, 2):
            assert not brute_force_is_isomorphic(a, b)


def test_enumerate_is_deterministic():
    a = [g.edges for g in enumerate_graphs(4)]
    b = [g.edges for g in enumerate_graphs(4)]
    assert a == b


# ---------------------------------------------------------------------------
# graph6


def test_graph6_empty_and_k3():
    assert write_graph6(Graph(0, [])) == "?"
    assert parse_graph6("?").n == 0
    k3 = complete_graph(3)
    code = write_graph6(k3)
    assert parse_graph6(code) == k3
    assert write_graph6(parse_graph6(code)) == code


def test_graph6_roundtrip_over_classes(classes5):
    for g in classes5:
        assert parse_graph6(write_graph6(g)) == g


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0))
def test_graph6_roundtrip_random(n, seed):
    mask = seed % (1 << len(all_pairs(n)))
    g = Graph.from_mask(n, mask)
    assert parse_graph6(write_graph6(g)) == g


def test_graph6_long_form_n63_n64():
    for n in (63, 64):
        g = Graph(n, [(0, 1), (5, 62), (n - 2, n - 1)])
        code = write_graph6(g)
        assert code.startswith("~")
        assert parse_graph6(code) == g


def test_graph6_header_prefix():
    k3 = complete_graph(3)
    assert parse_graph6(">>graph6<<" + write_graph6(k3)) == k3


def test_graph6_parse_errors_carry_offsets():
    with pytest.raises(Graph6ParseError):
        parse_graph6("")
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6("D")  # n=5 needs payload bytes
    assert exc.value.offset == 1
    with pytest.raises(Graph6ParseError):
        parse_graph6("C~~")  # trailing bytes
    with pytest.raises(Graph6ParseError):
        parse_graph6("~~????")  # 256-bit size form
    with pytest.raises(Graph6ParseError):
        parse_graph6("B" + chr(40))  # payload byte below 63
    assert parse_graph6("A?").edge_count == 0  # valid: empty 2-vertex graph
    # n=2 has one data bit; set a padding bit: value with bit 2 set
    with pytest.raises(Graph6ParseError):
        parse_graph6("A" + chr(63 + 0b000100))
    with pytest.raises(UnsupportedSizeError):
        parse_graph6("~" + chr(63) + chr(63 + 1) + chr(63 + 1))  # n = 65


def test_iter_graph6_stream(classes4):
    text = ">>graph6<<\n" + "\n".join(write_graph6(g) for g in classes4) + "\n\n"
    parsed = [parse_graph6(code) for code in graph6_codes(text.splitlines())]
    assert parsed == classes4


# ---------------------------------------------------------------------------
# Graph construction validation


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(UnsupportedSizeError):
        Graph(65, [])


def test_graph_normalizes_edge_order():
    g = Graph(3, [(2, 0), (1, 0)])
    assert g.edges == ((0, 1), (0, 2))
    assert g.edge_id(2, 0) == 1
