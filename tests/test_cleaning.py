import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from rtlab.cleaning import (
    CleaningConfig,
    clean,
    critical_sets,
    list_size_histogram,
    operation1_step,
    operation2_step,
    remove_singleton_edges,
    state_graph,
    supersaturation_bound,
    supersaturation_interval,
    trace_to_dict,
    verify_trace,
    xi_from_delta,
)
from rtlab.exactmath import EULER_HI, EULER_LO, cmp_value_rpow
from rtlab.graphs import (
    Graph,
    closeness_to_kpartite,
    complete_graph,
    count_cliques,
    enumerate_graphs,
    k4_subgraphs,
    triangles,
)
from rtlab.templates import (
    Template,
    complete_template,
    count_rainbow_copies,
    count_rainbow_copies_through_triangle,
    from_coloring,
    k4_rainbow_copies,
    lift_template,
)
from test_templates import random_template, scalar_distinct_choices

XI = Fraction(1, 100)


def cfg_for(t, xi=XI, priority=(1, 2)):
    return CleaningConfig(r=t.r, xi=xi, original_n=t.graph.n, priority=priority)


# ---------------------------------------------------------------------------
# exact power comparisons underpinning all guards


def test_cmp_value_rpow_matches_integer_powering():
    rng = random.Random(31337)
    for _ in range(400):
        value = rng.randint(1, 10 ** 6)
        base = rng.randint(2, 64)
        num = rng.randint(0, 60)
        den = rng.randint(1, 40)
        got = cmp_value_rpow(value, base, num, den)
        lhs = value ** den
        rhs = base ** num
        assert got == (lhs > rhs) - (lhs < rhs)


def test_cmp_value_rpow_exact_ties():
    assert cmp_value_rpow(144, 12, 2, 1) == 0
    assert cmp_value_rpow(8, 32, 3, 5) == 0  # 8^5 == 32^3
    assert cmp_value_rpow(27, 3, 9, 3) == 0
    assert cmp_value_rpow(1, 12, 0, 1) == 0


def test_cmp_value_rpow_huge_denominator():
    # denominators far beyond anything integer powering could touch
    xi = xi_from_delta(Fraction(1, 100))
    q = xi.denominator
    p = xi.numerator
    num = (2 * q * q - p * p) * 63
    den = 3 * q * q
    # the exponent is 42 - 21 p^2/q^2, a hair below 42
    assert cmp_value_rpow(12 ** 42, 12, num, den) == 1
    assert cmp_value_rpow(12 ** 41, 12, num, den) == -1
    assert cmp_value_rpow(2 ** 100, 12, num, den) == -1
    # an exact tie with an astronomically large denominator
    assert cmp_value_rpow(12 ** 7, 12, 7 * 10 ** 40, 10 ** 40) == 0


# ---------------------------------------------------------------------------
# G_0 construction


def test_remove_singleton_edges(k4):
    all_single = from_coloring(k4, [1] * 6, 12)
    assert remove_singleton_edges(all_single).edge_count == 0
    assert remove_singleton_edges(complete_template(k4, 12)).edges == k4.edges
    g = Graph(3, [(0, 1), (1, 2)])
    t = Template(g, 12, [0b1, 0b11])
    kept = remove_singleton_edges(t)
    assert kept.edges == ((1, 2),)
    empty = Template(g, 12, [0, 0b11])  # size-0 lists are dropped too
    assert remove_singleton_edges(empty).edges == ((1, 2),)


# ---------------------------------------------------------------------------
# Operation 1


def test_op1_isolated_vertex_fires():
    g = Graph(3, [(1, 2)])
    t = Template(g, 12, [0b11])
    v, wit = operation1_step(t, cfg_for(t))
    assert v == 0
    assert wit["list_product"] == "1"


def test_op1_complete_template_never_fires(k4):
    t = complete_template(k4, 12)
    v, _ = operation1_step(t, cfg_for(t))
    assert v is None
    # independent exact recomputation: 12^3 vs 12^((2 - 1e-4) * 3 / 3)
    assert (12 ** 3) ** 30000 > 12 ** (19999 * 3)


def test_op1_small_lists_fire(k4):
    t = Template(k4, 12, [0b11] * 6)
    v, wit = operation1_step(t, cfg_for(t))
    assert v == 0
    assert wit["list_product"] == "8"
    # independent exact recomputation: 8 <= 12^((2 - 1e-4) * 3 / 3)
    assert 8 ** 30000 <= 12 ** (19999 * 3)


def test_op1_skips_dead_vertices(k4):
    t = Template(k4, 12, [0b11] * 6)
    v, _ = operation1_step(t, cfg_for(t), alive=[1, 2, 3])
    assert v == 1


def test_op1_ignores_short_list_edges(k4):
    # singleton edges are not part of G_i, so they do not enter products
    masks = [(1 << 12) - 1] * 6
    masks[k4.edge_id(0, 1)] = 0b1
    t = Template(k4, 12, masks)
    g = state_graph(t, range(4))
    assert not g.has_edge(0, 1)
    # vertex 0's product is 12^2 = 144, a hair above 12^(1.9999): no fire
    v, _ = operation1_step(t, cfg_for(t))
    assert v is None
    assert cmp_value_rpow(144, 12, 19999 * 3, 30000) == 1
    # shrinking one more list pulls the product under the threshold
    masks[k4.edge_id(0, 2)] = (1 << 5) - 1
    t2 = Template(k4, 12, masks)
    v2, wit = operation1_step(t2, cfg_for(t2))
    assert v2 == 0
    assert wit["list_product"] == "60"


# ---------------------------------------------------------------------------
# Operation 2


def test_op2_requires_full_list(k4):
    t = Template(k4, 12, [0b11] * 6)
    tri, _ = operation2_step(t, cfg_for(t))
    assert tri is None


def test_op2_all_critical_blocks(k5):
    t = complete_template(k5, 12)
    tri, _ = operation2_step(t, cfg_for(t))
    assert tri is None  # every triangle is critical at this scale


def _op2_fixture(full_second=False):
    g = complete_graph(6)
    full = (1 << 12) - 1
    masks = []
    for u, v in g.edges:
        if (u, v) == (0, 1):
            masks.append(full)
        elif (u, v) == (0, 2):
            masks.append(full if full_second else 0b111)
        else:
            masks.append(0b11)
    return Template(g, 12, masks)


def test_op2_constructed_instance():
    t = _op2_fixture()
    cfg = cfg_for(t)
    tri, wit = operation2_step(t, cfg)
    assert tri == (0, 1, 2)
    assert wit["list_sizes"] == [12, 3, 2]
    # direct guard recomputation
    g = state_graph(t, range(6))
    joint = bin(g.adj[0] & g.adj[1] & g.adj[2]).count("1")
    assert joint == 3
    assert Fraction(joint) >= 19 * XI ** 2 * (6 - 3)
    cnt = count_rainbow_copies_through_triangle(t, (0, 1, 2), sub=g)
    assert cnt ** 6 < 6 ** 5  # non-critical
    assert cnt == 0


def test_op2_two_full_lists_qualify_literally():
    # the guard reads sorted sizes; two full lists still satisfy it
    t = _op2_fixture(full_second=True)
    tri, wit = operation2_step(t, cfg_for(t))
    assert tri == (0, 1, 2)
    assert wit["list_sizes"] == [12, 12, 2]


def test_op2_skips_critical_and_returns_next():
    # (0,1,2) is critical (copies through the K4 on {0,1,2,4}) but satisfies
    # every other guard clause; (0,1,3) is rainbow-starved: the K4 via w=4
    # is cut by a singleton edge and all other extensions only see the color
    # pool {1,2,3} on five short lists
    g = complete_graph(6)
    full = (1 << 12) - 1
    special = {
        (0, 1): full,
        (0, 2): 0b111,
        (1, 2): 0b11,
        (0, 3): 0b111,
        (1, 3): 0b11,
        (0, 4): full,
        (1, 4): full,
        (2, 4): 0b11000,  # colors {4, 5}
        (3, 4): 0b1,  # singleton: not part of G_0
    }
    masks = [special.get(e, 0b11) for e in g.edges]
    t = Template(g, 12, masks)
    cfg = cfg_for(t)
    gs = state_graph(t, range(6))
    c012 = count_rainbow_copies_through_triangle(t, (0, 1, 2), sub=gs)
    c013 = count_rainbow_copies_through_triangle(t, (0, 1, 3), sub=gs)
    assert c012 ** 6 >= 6 ** 5 and c013 ** 6 < 6 ** 5
    assert c013 == 0 and c012 == 4032
    tri, _ = operation2_step(t, cfg)
    assert tri == (0, 1, 3)


# ---------------------------------------------------------------------------
# the cleaning loop and trace replay


def test_clean_all_singleton_strips_to_floor():
    for n, xi, floor in ((6, XI, 0), (9, Fraction(1, 3), 1)):
        g = complete_graph(n)
        t = from_coloring(g, [1] * g.edge_count, 12)
        cfg = CleaningConfig(r=12, xi=xi, original_n=n)
        assert remove_singleton_edges(t).edge_count == 0
        trace = clean(t, cfg)
        assert trace.stop_reason == "size <= xi^2 n"
        assert len(trace.final_vertices) == floor
        assert len(trace.steps) == n - floor
        assert all(s.op == 1 for s in trace.steps)
        # vertices leave in index order since every product is empty
        assert [s.removed for s in trace.steps] == [(i,) for i in range(n - floor)]
        assert verify_trace(t, cfg, trace)


def test_clean_complete_template_zero_steps(k6):
    t = complete_template(k6, 12)
    cfg = cfg_for(t)
    trace = clean(t, cfg)
    assert len(trace.steps) == 0
    assert trace.stop_reason == "no operation applicable"
    assert trace.final_vertices == tuple(range(6))
    assert verify_trace(t, cfg, trace)


def test_clean_trace_length_bounded_and_replayable():
    rng = random.Random(0xF00D)
    for _ in range(12):
        t = random_template(rng, rng.randint(4, 6), 12)
        cfg = cfg_for(t)
        trace = clean(t, cfg)
        assert len(trace.steps) <= t.graph.n
        assert sum(len(s.removed) for s in trace.steps) + len(trace.final_vertices) == t.graph.n
        assert verify_trace(t, cfg, trace)
        # serialization roundtrip is exact and deterministic
        d = trace_to_dict(trace)
        assert json.loads(json.dumps(d, sort_keys=True)) == d
        assert trace_to_dict(clean(t, cfg)) == d


def test_clean_priority_order_is_respected():
    t = _op2_fixture()
    cfg21 = cfg_for(t, priority=(2, 1))
    trace = clean(t, cfg21)
    assert trace.steps[0].op == 2
    assert trace.steps[0].removed == (0, 1, 2)
    assert trace.steps[0].n_after == trace.steps[0].n_before - 3
    cfg12 = cfg_for(t, priority=(1, 2))
    trace12 = clean(t, cfg12)
    assert trace12.steps[0].op == 1  # small products fire first by default


def test_verify_trace_rejects_tampering(k6):
    t = from_coloring(k6, [1] * 15, 12)
    cfg = cfg_for(t)
    trace = clean(t, cfg)
    bad_steps = list(trace.steps)
    s = bad_steps[0]
    bad_steps[0] = type(s)(s.op, (5,), s.n_before, s.n_after, s.witness, s.survivors)
    tampered = type(trace)(
        trace.r, trace.xi, trace.original_n, trace.priority,
        tuple(bad_steps), trace.final_vertices, trace.stop_reason,
    )
    assert not verify_trace(t, cfg, tampered)

    def with_first_step(**changes):
        steps = (trace.steps[0]._replace(**changes),) + trace.steps[1:]
        return trace._replace(steps=steps)

    witness = dict(s.witness, list_product="2")
    assert not verify_trace(t, cfg, with_first_step(witness=witness))
    assert not verify_trace(t, cfg, with_first_step(survivors=s.survivors[1:]))
    assert not verify_trace(t, cfg, trace._replace(stop_reason="no operation applicable"))
    assert not verify_trace(t, cfg, trace._replace(priority=(2, 1)))
    assert verify_trace(t, cfg, trace._replace())
    # a config that does not fit the template is refused, as by clean
    with pytest.raises(ValueError):
        verify_trace(t, CleaningConfig(r=11, xi=XI, original_n=6), trace)


def test_clean_validates_config(k4):
    t = complete_template(k4, 12)
    with pytest.raises(ValueError):
        clean(t, CleaningConfig(r=11, xi=XI, original_n=4))
    with pytest.raises(ValueError):
        clean(t, CleaningConfig(r=12, xi=XI, original_n=5))
    with pytest.raises(ValueError):
        CleaningConfig(r=12, xi=Fraction(3, 2), original_n=4)
    with pytest.raises(ValueError):
        CleaningConfig(r=12, xi=XI, original_n=4, priority=(1, 1))


def test_cleaning_config_coerces_and_checks_every_construction():
    cfg = CleaningConfig(12, "1/3", 4, [2, 1])
    assert cfg == (12, Fraction(1, 3), 4, (2, 1))
    assert type(cfg.xi) is Fraction and type(cfg.priority) is tuple
    assert repr(cfg) == "CleaningConfig(r=12, xi=Fraction(1, 3), original_n=4, priority=(2, 1))"
    assert CleaningConfig(r=12, xi=XI, original_n=4).priority == (1, 2)
    for bad in ({"xi": 0}, {"xi": 1}, {"r": 1}, {"original_n": 0}, {"priority": (2, 2)}):
        with pytest.raises(ValueError):
            CleaningConfig(**{"r": 12, "xi": XI, "original_n": 4, **bad})
        with pytest.raises(ValueError):  # _replace and _make take the same checks
            cfg._replace(**bad)
    with pytest.raises(ValueError):
        CleaningConfig._make((12, 2, 4, (1, 2)))
    moved = cfg._replace(xi=0.5, priority=[1, 2])
    assert type(moved) is CleaningConfig and moved == (12, Fraction(1, 2), 4, (1, 2))
    with pytest.raises(AttributeError):
        cfg.xi = Fraction(1, 2)
    with pytest.raises(AttributeError):
        cfg.other = 1


def test_xi_from_delta_is_certified_lower_bound():
    delta = Fraction(1, 100)
    xi = xi_from_delta(delta)
    assert 0 < xi < 1
    assert xi * 300 * EULER_HI ** 6 == delta
    assert xi <= delta / (300 * EULER_LO ** 6)
    with pytest.raises(ValueError):
        xi_from_delta(0)


# ---------------------------------------------------------------------------
# the no-fire contrapositive: products exceed the threshold and every
# vertex keeps a large full-list neighborhood (lists full or of size <= 5)


def _nofire_fixture(rng, n):
    g = complete_graph(n)
    full = (1 << 12) - 1
    masks = []
    for _ in range(g.edge_count):
        if rng.random() < 0.8:
            masks.append(full)
        else:
            size = rng.randint(2, 5)
            masks.append((1 << size) - 1)
    return Template(g, 12, masks)


def test_op1_contrapositive_property():
    from rtlab.templates import r_neighborhood

    rng = random.Random(2026)
    checked = 0
    for _ in range(40):
        n = rng.randint(5, 9)
        t = _nofire_fixture(rng, n)
        cfg = cfg_for(t)
        v, _ = operation1_step(t, cfg)
        if v is not None:
            continue
        checked += 1
        g = state_graph(t, range(n))
        p, q = XI.numerator, XI.denominator
        num = (2 * q * q - p * p) * (n - 1)
        den = 3 * q * q
        for u in range(n):
            prod = 1
            m = g.adj[u]
            while m:
                b = m & -m
                w = b.bit_length() - 1
                m ^= b
                prod *= t.list_size(t.graph.edge_id(u, w))
            assert cmp_value_rpow(prod, 12, num, den) > 0  # guard negation
            nr = bin(r_neighborhood(t, u)).count("1")
            assert 20 * nr > n  # |N^r(v)| > 0.05 n_i
    assert checked >= 10


# ---------------------------------------------------------------------------
# critical sets


def test_critical_sets_k5(k5):
    t = complete_template(k5, 12)
    cs = critical_sets(t)
    assert len(cs.triangles) == 10  # every triangle critical: 1330560 >= 5^(5/6)
    assert 1330560 ** 6 >= 5 ** 5
    assert cs.vertices == ()
    assert cs.current_n == 5 and cs.original_n == 5


def test_critical_sets_empty_without_rainbow(k5):
    for r in (2, 5):
        t = complete_template(k5, r)
        cs = critical_sets(t)
        assert cs.triangles == () and cs.edges == () and cs.vertices == ()


def test_critical_sets_thresholds_decouple_edges_from_vertices():
    # K_13: all triangles critical, every edge critical (11 >= 13^(11/12)),
    # yet no vertex reaches 13^(23/12); the sets are independent notions
    n = 13
    t = complete_template(complete_graph(n), 12)
    cs = critical_sets(t)
    assert len(cs.triangles) == math.comb(n, 3)
    assert len(cs.edges) == math.comb(n, 2)
    assert (n - 2) ** 12 >= n ** 11
    assert cs.vertices == ()
    assert math.comb(n - 1, 2) ** 12 < n ** 23


def test_critical_sets_respect_alive_and_original_n(k6):
    t = complete_template(k6, 12)
    cs = critical_sets(t, alive=[0, 1, 2, 3], original_n=6)
    assert cs.current_n == 4
    assert len(cs.triangles) == 4  # the four triangles of the alive K4
    # huge original n kills criticality via the n^(5/6) threshold
    cs2 = critical_sets(t, original_n=64 ** 6)
    assert cs2.triangles == ()


def test_critical_sets_reject_nonpositive_original_n(k4):
    # no rainbow copies, yet 0^6 >= n^5 holds for every n <= 0
    t = Template(k4, 6, [0b11] * 6)
    assert critical_sets(t).triangles == ()
    for n in (0, -5):
        with pytest.raises(ValueError):
            critical_sets(t, original_n=n)


def test_alive_must_be_distinct_and_in_range(k6):
    # repeated vertices used to inflate n_i, out-of-range ones to count too
    t = complete_template(k6, 6)
    cfg = cfg_for(t)
    assert operation1_step(t, cfg) == (None, None)
    for alive in ([0, 0, 0, 0, 1, 2], [0, 1, 99], [-1, 0, 1]):
        for step in (operation1_step, operation2_step):
            with pytest.raises(ValueError):
                step(t, cfg, alive)
    for alive in ([0, 1, 2, 3, 3, 3], [0, 1, 2, 6]):
        with pytest.raises(ValueError):
            critical_sets(t, alive=alive)
    assert critical_sets(t, alive=[]).current_n == 0


def test_criticality_monotone_under_template_growth():
    rng = random.Random(0xCAFE)
    for _ in range(20):
        small = random_template(rng, 5, 8)
        big = lift_template(
            Template(small.graph, small.r, [m | rng.getrandbits(8) for m in small.masks]),
            threshold=7,
        )
        x3_small = set(critical_sets(small).triangles)
        x3_big = set(critical_sets(big).triangles)
        assert x3_small <= x3_big


# ---------------------------------------------------------------------------
# supersaturation


def test_supersaturation_example_value():
    lo, hi = supersaturation_interval(6, 1, 3, 15)
    # 24 / e^6 with the certified Euler enclosure
    assert lo <= Fraction(24) / EULER_LO ** 6
    assert hi >= Fraction(24) / EULER_HI ** 6
    assert lo <= supersaturation_bound(6, 1, 3, 15) <= hi
    assert abs(float(lo) - 24 / math.exp(6)) < 1e-9
    assert hi - lo < Fraction(1, 10 ** 6)


def test_supersaturation_nonpositive_when_bracket_vacuous():
    # e + t <= (1 - 1/k) n^2 / 2 gives a nonpositive bound
    assert supersaturation_bound(6, 1, 3, 10) <= 0


def test_supersaturation_linearity():
    base = supersaturation_interval(6, 1, 3, 13)  # bracket = 2
    double = supersaturation_interval(6, 3, 3, 13)  # bracket = 4
    assert double[0] == 2 * base[0] and double[1] == 2 * base[1]


def test_supersaturation_validation():
    with pytest.raises(ValueError):
        supersaturation_bound(0, 1, 3, 5)
    with pytest.raises(ValueError):
        supersaturation_bound(5, 0, 3, 5)
    # an n-vertex graph has 0..C(n,2) edges
    for n, e in ((6, -5), (4, 100), (4, 7)):
        with pytest.raises(ValueError, match="edge count"):
            supersaturation_interval(n, 1, 3, e)
        with pytest.raises(ValueError, match="edge count"):
            supersaturation_bound(n, 1, 3, e)
    assert supersaturation_bound(4, 1, 3, 6) > 0 and supersaturation_bound(4, 1, 3, 0) < 0


def test_supersaturation_clique_bound_on_five_vertex_graphs():
    # spot version of the exhaustive acceptance check
    for g in enumerate_graphs(5):
        close = closeness_to_kpartite(g, 3).internal_edges
        k4s = count_cliques(g, 4)
        for t in range(1, 6):
            if close > t:
                assert Fraction(k4s) >= supersaturation_bound(5, t, 3, g.edge_count)


# ---------------------------------------------------------------------------
# histogram


def test_histogram_examples(k4):
    h = list_size_histogram(complete_template(k4, 12))
    assert h.counts[12] == 6 and h.small == 0 and h.total == 6
    h2 = list_size_histogram(Template(k4, 12, [0b11] * 6))
    assert h2.counts[2] == 6 and h2.small == 6
    rng = random.Random(4)
    for _ in range(20):
        t = random_template(rng, 5, 9)
        h3 = list_size_histogram(t)
        assert h3.total == t.graph.edge_count
        assert h3.small == sum(h3.counts[2:6])


# ---------------------------------------------------------------------------
# per-K4 rainbow counts are kept on the template and reused


def test_critical_sets_count_each_k4_once(kernel_calls):
    t = complete_template(complete_graph(8), 12)
    cs = critical_sets(t)
    assert len(cs.triangles) == math.comb(8, 3)
    assert len(kernel_calls) == math.comb(8, 4)
    critical_sets(t, alive=range(6))
    assert len(kernel_calls) == math.comb(8, 4)


def test_verify_trace_replays_from_the_memo(kernel_calls):
    t = _op2_fixture()
    cfg = cfg_for(t, priority=(2, 1))
    trace = clean(t, cfg)
    assert trace.steps[0].op == 2 and kernel_calls
    kernel_calls.clear()
    assert verify_trace(t, cfg, trace)
    assert kernel_calls == []


def _mixed_template(rng, n, r):
    """Dense random host; lists are full, short subsets of the colours 1..4
    (which starve rainbow copies, so op 2 can fire), or random."""
    pairs = math.comb(n, 2)
    g = Graph.from_mask(n, sum(1 << i for i in range(pairs) if rng.random() < 0.85))
    full = (1 << r) - 1
    masks = []
    for _ in range(g.edge_count):
        x = rng.random()
        if x < 0.5:
            masks.append(full)
        elif x < 0.9:
            masks.append(sum(1 << c for c in rng.sample(range(4), rng.randint(2, 3))))
        else:
            masks.append(rng.getrandbits(r))
    return Template(g, r, masks)


def test_reused_template_answers_like_a_fresh_one():
    # one Template goes through every counting path; each answer must equal
    # the one from a freshly built Template with the same masks
    rng = random.Random(0x4B4)
    for _ in range(8):
        n = rng.randint(4, 9)
        t = _mixed_template(rng, n, rng.choice((6, 9, 12, 33, 64)))

        def fresh():
            return Template(t.graph, t.r, t.masks)

        for tri in triangles(t.graph):
            assert count_rainbow_copies_through_triangle(
                t, tri[::-1]
            ) == count_rainbow_copies_through_triangle(fresh(), tri)
        assert count_rainbow_copies(t) == count_rainbow_copies(fresh())
        cfg = cfg_for(t, priority=(2, 1))
        trace = clean(t, cfg)
        assert verify_trace(t, cfg, trace) and verify_trace(fresh(), cfg, trace)
        for alive in [range(n)] + [s.survivors for s in trace.steps]:
            assert critical_sets(t, alive=alive) == critical_sets(fresh(), alive=alive)
            g = state_graph(t, alive)
            for tri in triangles(g):
                assert count_rainbow_copies_through_triangle(
                    t, tri, sub=g
                ) == count_rainbow_copies_through_triangle(fresh(), tri, sub=g)


def _mixed_template(rng: random.Random, n: int, full_share=0.5, most=4, r=12) -> Template:
    """Lists on K_n: about full_share of them full, the rest of 1 to `most`
    colors."""
    g = complete_graph(n)
    full = (1 << r) - 1
    masks = []
    for _ in g.edges:
        if rng.random() < full_share:
            masks.append(full)
        else:
            masks.append(sum(1 << c for c in rng.sample(range(r), rng.randint(1, most))))
    return Template(g, r, masks)


def _oracle_table(t: Template) -> dict:
    """Rainbow copies per host K4, counted afresh one K4 at a time."""
    g = t.graph
    return {
        quad: scalar_distinct_choices(
            [t.masks[g.edge_id(u, v)] for u, v in itertools.combinations(quad, 2)]
        )
        for quad in k4_subgraphs(g)
    }


def test_memo_reused_through_every_step_matches_the_oracle(kernel_calls):
    t = _mixed_template(random.Random(0), 10)
    cfg = cfg_for(t)
    trace = clean(t, cfg)
    assert [s.op for s in trace.steps] == [1] * 7 + [2]
    oracle = _oracle_table(t)
    for step in trace.steps:
        critical_sets(t, alive=step.survivors)
        assert k4_rainbow_copies(t) == oracle
    assert verify_trace(t, cfg, trace)
    assert k4_rainbow_copies(t) == oracle
    assert len(kernel_calls) == len(oracle) == math.comb(10, 4)


def test_critical_on_k20_matches_the_oracle():
    t = _mixed_template(random.Random(20), 20, full_share=0.05, most=2)
    cs = critical_sets(t)
    g = state_graph(t, range(20))
    oracle = _oracle_table(t)
    want = []
    for a, b, c in triangles(g):
        ext = g.adj[a] & g.adj[b] & g.adj[c]
        cnt = sum(oracle[tuple(sorted((a, b, c, d)))] for d in range(20) if ext >> d & 1)
        if cnt ** 6 >= 20 ** 5:
            want.append((a, b, c))
    assert cs.triangles == tuple(want)
    assert (len(triangles(g)), len(cs.triangles)) == (125, 97)
    assert cs.edges == cs.vertices == ()
