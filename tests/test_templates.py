import itertools
import json
import random
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtlab import templates
from rtlab.containers import materialize_rows
from rtlab.errors import UnsupportedSizeError
from rtlab.exactmath import SET_PARTITIONS, falling_factorial, stirling2_row
from rtlab.graphs import Graph, complete_graph
from rtlab.templates import (
    Template,
    complete_template,
    count_distinct_choices,
    count_rainbow_copies,
    count_rainbow_copies_through_triangle,
    from_coloring,
    is_subtemplate,
    lift_template,
    list_product,
    r_neighborhood,
    template_from_json,
    template_to_dict,
    template_to_json,
)


def brute_rainbow_count(t: Template) -> int:
    """Oracle: per K4, try all r^6 color selections and test distinctness."""
    g = t.graph
    total = 0
    for quad in itertools.combinations(range(g.n), 4):
        if not all(g.has_edge(u, v) for u, v in itertools.combinations(quad, 2)):
            continue
        eids = [g.edge_id(u, v) for u, v in itertools.combinations(quad, 2)]
        for sel in itertools.product(range(1, t.r + 1), repeat=6):
            if len(set(sel)) == 6 and all(
                t.masks[e] >> (c - 1) & 1 for e, c in zip(eids, sel)
            ):
                total += 1
    return total


def brute_rainbow_rows(t: Template) -> list:
    """Oracle: every rainbow copy as a sorted tuple of hypergraph-vertex ids
    edge_id * r + (color - 1), by trying the full product of the six lists of
    each K4.  Returned sorted, so it compares with rows in any order."""
    g, r = t.graph, t.r
    out = []
    for quad in itertools.combinations(range(g.n), 4):
        if not all(g.has_edge(u, v) for u, v in itertools.combinations(quad, 2)):
            continue
        eids = [g.edge_id(u, v) for u, v in itertools.combinations(quad, 2)]
        for sel in itertools.product(*(t.list_of(e) for e in eids)):
            if len(set(sel)) == 6:
                out.append(tuple(sorted(e * r + c - 1 for e, c in zip(eids, sel))))
    return sorted(out)


def random_template(rng: random.Random, n: int, r: int) -> Template:
    m = rng.getrandbits(comb(n, 2))
    g = Graph.from_mask(n, m)
    masks = [rng.getrandbits(r) for _ in range(g.edge_count)]
    return Template(g, r, masks)


# ---------------------------------------------------------------------------
# construction


def test_complete_template(k4):
    t = complete_template(k4, 6)
    assert all(t.list_of(i) == (1, 2, 3, 4, 5, 6) for i in range(6))
    t2 = complete_template(Graph(5, []), 12)
    assert t2.masks == ()
    t3 = complete_template(complete_graph(5), 12)
    assert t3.graph.edge_count == 10  # host T_3(5) case below
    from rtlab.graphs import turan_graph

    t4 = complete_template(turan_graph(5, 3), 12)
    assert len(t4.masks) == 8 and all(t4.list_size(i) == 12 for i in range(8))


def test_color_cap():
    with pytest.raises(UnsupportedSizeError):
        complete_template(complete_graph(3), 65)


def test_from_coloring(k4):
    t = from_coloring(k4, [1] * 6, 6)
    assert all(t.list_of(i) == (1,) for i in range(6))
    assert is_subtemplate(t, complete_template(k4, 6))
    rainbow = from_coloring(k4, [1, 2, 3, 4, 5, 6], 6)
    assert count_rainbow_copies(rainbow) == 1
    with pytest.raises(ValueError):
        from_coloring(k4, [0, 1, 2, 3, 4, 5], 6)
    with pytest.raises(ValueError):
        from_coloring(k4, [7, 1, 2, 3, 4, 5], 6)


def test_is_subtemplate(k4):
    t = complete_template(k4, 6)
    assert is_subtemplate(t, t)
    a = Template(k4, 6, [0b000011] + [0b111111] * 5)
    b = Template(k4, 6, [0b000110] + [0b111111] * 5)
    assert not is_subtemplate(a, b)
    with pytest.raises(ValueError):
        is_subtemplate(t, complete_template(complete_graph(5), 6))
    with pytest.raises(ValueError):
        is_subtemplate(t, complete_template(k4, 7))


def test_template_validation(k4):
    with pytest.raises(ValueError):
        Template(k4, 6, [0b111111] * 5)  # wrong list count
    with pytest.raises(ValueError):
        Template(k4, 6, [1 << 6] + [1] * 5)  # color 7 with r=6


# ---------------------------------------------------------------------------
# rainbow counting


def test_count_examples(k4, k5):
    assert count_rainbow_copies(complete_template(k4, 6)) == 720
    assert count_rainbow_copies(complete_template(k5, 6)) == 3600
    t_fix = Template(k4, 6, [0b1] + [0b111111] * 5)
    assert count_rainbow_copies(t_fix) == 120
    assert brute_rainbow_count(t_fix) == 120
    t_empty = Template(k4, 6, [0] + [0b111111] * 5)
    assert count_rainbow_copies(t_empty) == 0


def test_count_closed_form_small_grid():
    for n in range(2, 6):
        for r in range(1, 8):
            t = complete_template(complete_graph(n), r)
            expect = falling_factorial(r, 6) * comb(n, 4)
            assert count_rainbow_copies(t) == expect
            if n <= 4 and r <= 7:
                assert brute_rainbow_count(t) == expect


def test_count_matches_brute_on_random_templates():
    rng = random.Random(0xA11CE)
    for _ in range(60):
        t = random_template(rng, rng.randint(4, 5), rng.randint(4, 6))
        assert count_rainbow_copies(t) == brute_rainbow_count(t)


# ---------------------------------------------------------------------------
# distinct-choice kernel


def brute_distinct_choices(masks, forbidden: int) -> int:
    """Oracle: every tuple drawn from the lists minus `forbidden`, counting
    the tuples whose colors are pairwise distinct."""
    lists = [[c for c in range(8) if (m & ~forbidden) >> c & 1] for m in masks]
    return sum(len(set(sel)) == len(sel) for sel in itertools.product(*lists))


def scalar_distinct_choices(masks, forbidden: int = 0) -> int:
    """Oracle: the Moebius sum over set partitions for one row, in Python
    integers, one list intersection and one partition at a time."""
    q = len(masks)
    inter = [~forbidden] * (1 << q)  # inter[S]: colors allowed on every list in S
    for s in range(1, 1 << q):
        low = s & -s
        inter[s] = inter[s ^ low] & masks[low.bit_length() - 1]
    size = [x.bit_count() for x in inter]
    total = 0
    for mu, blocks in SET_PARTITIONS[q]:
        for b in blocks:
            mu *= size[b]
        total += mu
    return total


def test_distinct_choices_match_brute_force():
    rng = random.Random(2024)
    for q in range(7):
        for _ in range(40):
            sizes = [rng.randint(0, 4) for _ in range(q)]
            masks = [sum(1 << c for c in rng.sample(range(8), k)) for k in sizes]
            forbidden = rng.choice((0, rng.getrandbits(8)))
            expected = brute_distinct_choices(masks, forbidden)
            assert count_distinct_choices([masks], forbidden) == [expected]
    assert count_distinct_choices([[0b111, 0, 0b1]]) == [0]  # an empty list
    assert count_distinct_choices([[0b111, 0b111]], forbidden=0b010) == [2]
    assert count_distinct_choices([[]], forbidden=0b1) == [1]


def test_distinct_choices_identical_lists():
    for q in range(7):
        rows = [[(1 << s) - 1] * q for s in range(9)]
        assert count_distinct_choices(rows) == [falling_factorial(s, q) for s in range(9)]


def _random_mask(rng: random.Random, r: int) -> int:
    """Empty, full or random lists of colors 1..r."""
    kind = rng.randrange(4)
    return (0, (1 << r) - 1)[kind] if kind < 2 else rng.getrandbits(r)


def test_kernel_matches_scalar_oracle_seeded():
    rng = random.Random(64)
    for q in range(7):
        for r in (1, 6, 12, 63, 64):
            forbidden = rng.choice((0, rng.getrandbits(r), 1 << (r - 1)))
            rows = [[_random_mask(rng, r) for _ in range(q)] for _ in range(30)]
            want = [scalar_distinct_choices(row, forbidden) for row in rows]
            assert count_distinct_choices(rows, forbidden) == want
    # batches crossing two pass boundaries of the Moebius sum at every q,
    # all 64 colors in play
    for q in range(1, 7):
        size = 2 * templates._PASS_ROWS[q] + 37
        rows = [[_random_mask(rng, 64) for _ in range(q)] for _ in range(size)]
        rows[-1] = [(1 << 64) - 1] * q
        got = count_distinct_choices(rows)
        assert got == [scalar_distinct_choices(row) for row in rows]
        assert got[-1] == falling_factorial(64, q)


def test_kernel_passes_stay_small():
    # a pass holds at most 1 MiB at q = 6, whatever the batch: per row 2^6 + 1
    # list sizes, Bell(6) terms and one Bell(6) gather of sizes, all int64
    step = templates._PASS_ROWS[6]
    per_row = 8 * (2 ** 6 + 1 + 2 * len(SET_PARTITIONS[6]))
    assert per_row * step <= 2 ** 20 < per_row * (step + 1)
    rng = random.Random(66)
    rows = [[rng.getrandbits(64) for _ in range(6)] for _ in range(20000)]
    rows = np.array(rows, dtype=np.uint64)  # the caller's: not traced
    tracemalloc.start()
    try:  # a pass's matrices and the 20,000 counts returned
        got = count_distinct_choices(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[:50] == [scalar_distinct_choices(row) for row in rows[:50].tolist()]
    assert peak < 2 * 2 ** 20


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=6).flatmap(
        lambda q: st.lists(
            st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=q, max_size=q),
            min_size=1,
            max_size=8,
        )
    ),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)
def test_kernel_matches_scalar_oracle(rows, forbidden):
    want = [scalar_distinct_choices(row, forbidden) for row in rows]
    assert count_distinct_choices(rows, forbidden) == want


def test_kernel_batch_shapes():
    assert count_distinct_choices([]) == []
    with pytest.raises(ValueError):
        count_distinct_choices([[1, 2], [1]])  # rows of different lengths
    with pytest.raises(ValueError):
        count_distinct_choices([1, 2])  # one row, not a batch


def test_partition_table_counts_stirling_numbers():
    for q, rows in enumerate(SET_PARTITIONS):
        by_blocks = [0] * (q + 1)
        for _, blocks in rows:
            by_blocks[len(blocks)] += 1
        assert by_blocks == stirling2_row(q)
    with pytest.raises(ValueError):
        count_distinct_choices([[1] * 7])


def test_enumeration_matches_count_and_is_valid():
    rng = random.Random(7)
    for _ in range(20):
        t = random_template(rng, 4, 6)
        r = t.r
        copies = [tuple((v // r, v % r + 1) for v in row) for row in materialize_rows(t).tolist()]
        assert len(copies) == count_rainbow_copies(t)
        assert len(set(copies)) == len(copies)
        for pairs in copies:
            eids = [e for e, _ in pairs]
            colors = [c for _, c in pairs]
            assert len(set(eids)) == 6 and len(set(colors)) == 6
            verts = set()
            for e in eids:
                verts.update(t.graph.edges[e])
            assert len(verts) == 4
            assert all(t.masks[e] >> (c - 1) & 1 for e, c in pairs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(min_value=0), st.integers(min_value=4, max_value=6), st.integers(min_value=1, max_value=8))
def test_subtemplate_monotonicity(seed, n, r):
    rng = random.Random(seed)
    big = random_template(rng, n, r)
    small = Template(
        big.graph, r, [m & rng.getrandbits(r) for m in big.masks]
    )
    assert is_subtemplate(small, big)
    assert count_rainbow_copies(small) <= count_rainbow_copies(big)


def test_singleton_rainbow_agrees_with_direct_test(k5):
    rng = random.Random(99)
    for _ in range(200):
        colors = [rng.randint(1, 6) for _ in range(10)]
        t = from_coloring(k5, colors, 6)
        direct = False
        for quad in itertools.combinations(range(5), 4):
            eids = [k5.edge_id(u, v) for u, v in itertools.combinations(quad, 2)]
            if len({colors[e] for e in eids}) == 6:
                direct = True
        assert (count_rainbow_copies(t) > 0) == direct


# ---------------------------------------------------------------------------
# counting through a triangle


def test_through_triangle_examples(k4, k5):
    t12 = complete_template(k5, 12)
    assert count_rainbow_copies_through_triangle(t12, (0, 1, 2)) == 1330560
    t6 = complete_template(k4, 6)
    assert count_rainbow_copies_through_triangle(t6, (0, 1, 2)) == 720
    t_mono = from_coloring(k4, [1] * 6, 6)
    assert count_rainbow_copies_through_triangle(t_mono, (0, 1, 2)) == 0


def test_through_triangle_sums_to_four_times_total(k4):
    rng = random.Random(5)
    for _ in range(25):
        masks = [rng.getrandbits(7) for _ in range(6)]
        t = Template(k4, 7, masks)
        total = count_rainbow_copies(t)
        tri_sum = sum(
            count_rainbow_copies_through_triangle(t, tri)
            for tri in itertools.combinations(range(4), 3)
        )
        assert tri_sum == 4 * total


def test_through_triangle_respects_sub(k5):
    t = complete_template(k5, 12)
    sub = Graph(5, [e for e in k5.edges if e != (3, 4)])
    # extensions of (0,1,2) inside sub: only w=3 and w=4 survive separately
    cnt = count_rainbow_copies_through_triangle(t, (0, 1, 2), sub=sub)
    assert cnt == 2 * falling_factorial(12, 6) - falling_factorial(12, 6) * 0  # both K4s remain
    sub2 = Graph(5, [e for e in k5.edges if e != (0, 3)])
    cnt2 = count_rainbow_copies_through_triangle(t, (0, 1, 2), sub=sub2)
    assert cnt2 == falling_factorial(12, 6)  # only w=4 forms a K4 inside sub2


def test_through_triangle_in_any_vertex_order():
    # extension vertices below, between and above the triangle's vertices,
    # the triangle given in every order, inside the host and a subgraph
    rng = random.Random(77)
    g = complete_graph(7)
    t = Template(g, 9, [rng.getrandbits(9) | rng.getrandbits(9) for _ in range(g.edge_count)])
    sub = Graph(7, [e for e in g.edges if rng.random() < 0.8])
    copies = templates.k4_rainbow_copies(t)
    for h in (g, sub):
        for tri in itertools.combinations(range(7), 3):
            if not all(h.has_edge(u, v) for u, v in itertools.combinations(tri, 2)):
                continue
            want = sum(c for quad, c in copies.items()
                       if set(tri) <= set(quad)
                       and all(h.has_edge(u, v) for u, v in itertools.combinations(quad, 2)))
            for perm in itertools.permutations(tri):
                assert count_rainbow_copies_through_triangle(t, perm, sub=h) == want


def test_through_triangle_errors(k4, k5):
    t = complete_template(k4, 6)
    with pytest.raises(ValueError):
        count_rainbow_copies_through_triangle(t, (0, 1, 1))
    t5 = complete_template(k5, 6)
    for tri in ((-1, 0, 1), (0, 1, 7)):
        with pytest.raises(ValueError, match="is not a triangle"):
            count_rainbow_copies_through_triangle(t5, tri)
    g_no_tri = Graph(4, [(0, 1), (1, 2), (2, 3)])
    t2 = complete_template(g_no_tri, 6)
    with pytest.raises(ValueError):
        count_rainbow_copies_through_triangle(t2, (0, 1, 2))
    with pytest.raises(ValueError):
        count_rainbow_copies_through_triangle(t, (0, 1, 2), sub=complete_graph(5))
    # same vertex count, but sub has the edge (0, 3) the host lacks
    t3 = complete_template(Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]), 6)
    with pytest.raises(ValueError):
        count_rainbow_copies_through_triangle(t3, (0, 1, 2), sub=complete_graph(4))


# ---------------------------------------------------------------------------
# lift, products, r-neighborhood


def test_lift_template(k4):
    t = Template(k4, 12, [0b111111, 0b11111, 0b1, 0, 0b111111111111, 0b1010101010])
    lifted = lift_template(t)
    full = (1 << 12) - 1
    assert lifted.masks[0] == full  # size 6 becomes full
    assert lifted.masks[1] == t.masks[1]  # size 5 unchanged
    assert lifted.masks[4] == full
    assert is_subtemplate(t, lifted)
    rng = random.Random(3)
    for _ in range(30):
        t = random_template(rng, 5, 9)
        assert is_subtemplate(t, lift_template(t))


def test_list_product(k4):
    t = complete_template(k4, 6)
    assert list_product(t, 0) == 216
    g = Graph(3, [(1, 2)])
    t_iso = complete_template(g, 6)
    assert list_product(t_iso, 0) == 1  # isolated vertex: empty product
    t2 = Template(Graph(3, [(0, 1), (0, 2)]), 6, [0b11, 0b111])
    assert list_product(t2, 0) == 6


def test_r_neighborhood(k4):
    t = complete_template(k4, 6)
    assert r_neighborhood(t, 0) == 0b1110
    t_single = from_coloring(k4, [1] * 6, 2)
    assert r_neighborhood(t_single, 0) == 0
    mixed = Template(k4, 6, [0b111111, 0b11111, 0b111111, 0b1, 0b111111, 0b111111])
    # edge ids of K4: (0,1)=0 (0,2)=1 (0,3)=2 (1,2)=3 (1,3)=4 (2,3)=5
    assert r_neighborhood(mixed, 0) == 0b1010  # edges (0,1) and (0,3) are full
    assert r_neighborhood(mixed, 2) == 0b1000  # only (2,3) is full at vertex 2


# ---------------------------------------------------------------------------
# serialization


def test_template_json_roundtrip(k4):
    rng = random.Random(11)
    for _ in range(20):
        t = random_template(rng, 5, 8)
        assert template_from_json(template_to_json(t)) == t
    t = complete_template(k4, 6)
    d = template_to_dict(t)
    assert d["r"] == 6 and len(d["lists"]) == 6
    assert json.loads(template_to_json(t)) == d


def test_template_json_validation(k4):
    d = template_to_dict(complete_template(k4, 6))
    d["lists"] = d["lists"][:-1]
    with pytest.raises(ValueError):
        template_from_json(json.dumps(d))
    d2 = template_to_dict(complete_template(k4, 6))
    d2["lists"][0] = [7]
    with pytest.raises(ValueError):
        template_from_json(json.dumps(d2))
