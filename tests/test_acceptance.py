"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each (run with -s to see them).  All tolerances are exact
integer/rational comparisons; the only budgets are wall-clock ones."""

import json
import random
import time
from fractions import Fraction
from math import comb
from math import perm as falling_factorial

from rtlab.cleaning import (
    CleaningConfig,
    clean,
    remove_singleton_edges,
    supersaturation_bound,
    trace_to_dict,
    verify_trace,
)
from rtlab.containers import (
    container_hypothesis_check,
    min_n_for_container,
    structural_average_degree,
    structural_codegree,
    structural_edge_count,
    structural_max_codegrees,
)
from rtlab.counting import (
    bounds_compare,
    brute_force_count,
    count_colorings,
    partition_polynomial,
    rho_max_search,
)
from rtlab.graphs import (
    closeness_to_kpartite,
    complete_graph,
    count_cliques,
    enumerate_graphs,
    extremal_number,
    parse_graph6,
    turan_graph,
)
from rtlab.rows import codegree_from_rows, materialize_rows, max_codegrees_from_rows
from rtlab.templates import (
    Template,
    complete_template,
    count_rainbow_copies,
    from_coloring,
    is_subtemplate,
)
from test_templates import random_template

# regression anchor computed by this artifact: least n at which both
# container hypothesis conditions hold for r = 12 (exact binary search)
MIN_N_CONTAINER_R12 = 25948915593563941081964526723956484834936

CODEGREE_GRID = [(n, r) for n in (4, 5, 6) for r in (6, 7, 12)]
_rows_cache = {}


def _grid_rows(n, r):
    if (n, r) not in _rows_cache:
        _rows_cache[(n, r)] = materialize_rows(complete_template(complete_graph(n), r))
    return _rows_cache[(n, r)]


def _report(num, ok, detail=""):
    print(f"[acceptance] criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for g in enumerate_graphs(4):
        for r in range(1, 9):
            assert count_colorings(g, r, 4) == brute_force_count(g, r, 4)
            checked += 1
    for g in enumerate_graphs(5):
        for r in range(1, 6):
            assert count_colorings(g, r, 4) == brute_force_count(g, r, 4)
            checked += 1
    elapsed = time.time() - t0
    _report(1, elapsed < 120, f"{checked} oracle comparisons in {elapsed:.1f}s (< 120s)")


def test_criterion_02_closed_forms():
    t0 = time.time()
    k4 = complete_graph(4)
    for r in range(1, 14):
        expect = r ** 6 if r <= 5 else r ** 6 - falling_factorial(r, 6)
        assert count_colorings(k4, r, 4) == expect
    assert count_colorings(k4, 6, 4) == 45936
    assert count_colorings(k4, 7, 4) == 112609
    for n in range(0, 9):
        tg = turan_graph(n, 3)
        ex = extremal_number(n, 4)
        assert tg.edge_count == ex
        for r in range(1, 14):
            assert count_colorings(tg, r, 4) == r ** ex
    elapsed = time.time() - t0
    _report(2, elapsed < 60, f"K4 and Turan closed forms exact in {elapsed:.1f}s (< 60s)")


def test_criterion_03_partition_polynomial():
    k4 = complete_graph(4)
    poly = partition_polynomial(k4, 4)
    ok = poly.coeffs == (1, 31, 90, 65, 15, 0)
    for r in range(1, 14):
        expect = r ** 6 if r <= 5 else r ** 6 - falling_factorial(r, 6)
        ok = ok and poly.evaluate(r) == expect
    _report(3, ok, f"coefficients {poly.coeffs}, evaluation exact for r in 1..13")


def test_criterion_04_bounds_threshold():
    ok = True
    for r in range(1, 65):
        v = bounds_compare(r, 4)
        ok = ok and v.clique_side == 125 and v.turan_side == r * r
        ok = ok and v.verdict == ("clique-coloring" if r <= 11 else "turan")
    _report(4, ok, "dominance flips exactly at r = 12 (integer test 125 vs r^2)")


def test_criterion_05_codegree_formulas():
    t0 = time.time()
    rng = random.Random(0x5EED)
    for n, r in CODEGREE_GRID:
        g = complete_graph(n)
        t = complete_template(g, r)
        rows = _grid_rows(n, r)
        base = g.edge_count * r
        assert max_codegrees_from_rows(rows, base) == structural_max_codegrees(n, r)
        # the three canonical pairwise cases, checked on explicit hyperedges
        e01, e02, e23 = g.edge_id(0, 1), g.edge_id(0, 2), g.edge_id(2, 3)
        shared = [(e01, 1), (e02, 2)]
        disjoint = [(e01, 1), (e23, 2)]
        repeated = [(e01, 3), (e02, 3)]
        for pairs, expect in (
            (shared, (n - 3) * falling_factorial(r - 2, 4)),
            (disjoint, falling_factorial(r - 2, 4)),
            (repeated, 0),
        ):
            vids = [e * r + (c - 1) for e, c in pairs]
            assert structural_codegree(t, pairs) == expect
            assert codegree_from_rows(rows, vids) == expect
        # random larger sets: structural case analysis vs explicit rows
        for _ in range(10):
            size = rng.randint(3, 6)
            pairs = set()
            while len(pairs) < size:
                pairs.add((rng.randrange(g.edge_count), rng.randint(1, r)))
            pairs = sorted(pairs)
            vids = [e * r + (c - 1) for e, c in pairs]
            assert structural_codegree(t, pairs) == codegree_from_rows(rows, vids)
    elapsed = time.time() - t0
    _report(5, elapsed < 300, f"grid {CODEGREE_GRID} exact in {elapsed:.1f}s (< 300s)")


def test_criterion_06_hypergraph_identities():
    ok = True
    for n, r in CODEGREE_GRID:
        t = complete_template(complete_graph(n), r)
        nv = comb(n, 2) * r
        ne = count_rainbow_copies(t)
        rows = _grid_rows(n, r)
        ok = ok and ne == falling_factorial(r, 6) * comb(n, 4)  # e(H) exact
        ok = ok and len(rows) == ne
        dbar = structural_average_degree(n, r)
        ok = ok and dbar * nv == 6 * ne  # dbar N = 6 e(H)
        # the stated bounds hold (with equality for complete templates)
        ok = ok and ne <= falling_factorial(r, 6) * comb(n, 4)
        ok = ok and dbar <= comb(n - 2, 2) * falling_factorial(r - 1, 5)
        ok = ok and dbar == comb(n - 2, 2) * falling_factorial(r - 1, 5)
        ok = ok and structural_edge_count(n, r) == ne
    _report(6, ok, "e(H) and average-degree identities exact on the grid")


def test_criterion_07_container_threshold():
    t0 = time.time()
    n_min = min_n_for_container(12)
    at = container_hypothesis_check(n_min, 12)
    below = container_hypothesis_check(n_min - 1, 12)
    elapsed = time.time() - t0
    ok = (
        n_min == MIN_N_CONTAINER_R12
        and at.tau_ok
        and at.delta_ok
        and not below.passes
        and elapsed < 60
    )
    _report(7, ok, f"min n = {n_min} (pinned), boundary exact, {elapsed:.2f}s (< 60s)")


def test_criterion_08_supersaturation_exhaustive():
    t0 = time.time()
    checked = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            closeness = closeness_to_kpartite(g, 3).internal_edges
            k4s = Fraction(count_cliques(g, 4))
            for t in range(1, 11):
                if closeness > t:
                    assert k4s >= supersaturation_bound(n, t, 3, g.edge_count)
                    checked += 1
    elapsed = time.time() - t0
    _report(8, elapsed < 300, f"{checked} non-close cases bounded in {elapsed:.1f}s (< 300s)")


def test_criterion_09_cleaning_machinery():
    t0 = time.time()
    r = 12
    # all-singleton templates: empty G_0, operation 1 down to the floor
    for n, xi in ((6, Fraction(1, 100)), (9, Fraction(1, 3)), (8, Fraction(1, 2))):
        g = complete_graph(n)
        t = from_coloring(g, [1] * g.edge_count, r)
        assert remove_singleton_edges(t).edge_count == 0
        cfg = CleaningConfig(r=r, xi=xi, original_n=n)
        trace = clean(t, cfg)
        floor = (xi ** 2 * n).__floor__()
        assert trace.stop_reason == "size <= xi^2 n"
        assert all(s.op == 1 for s in trace.steps)
        assert len(trace.final_vertices) == floor
        assert len(trace.steps) == n - floor <= n
        assert verify_trace(t, cfg, trace)

    # replay is bit-exact across reruns and JSON serialization
    rng = random.Random(0xACCE)
    for _ in range(10):
        t = random_template(rng, rng.randint(4, 6), r)
        cfg = CleaningConfig(r=r, xi=Fraction(1, 100), original_n=t.graph.n)
        trace = clean(t, cfg)
        assert len(trace.steps) <= t.graph.n
        assert verify_trace(t, cfg, trace)
        d = trace_to_dict(trace)
        assert json.loads(json.dumps(d, sort_keys=True)) == d
        assert trace_to_dict(clean(t, cfg)) == d

    # subtemplate monotonicity of rainbow counts: 10^4 random pairs
    from rtlab.templates import count_rainbow_copies as crc

    pairs_checked = 0
    rng = random.Random(20260810)
    while pairs_checked < 10 ** 4:
        big = random_template(rng, rng.randint(4, 6), rng.randint(6, 8))
        small = Template(big.graph, big.r, [m & rng.getrandbits(big.r) for m in big.masks])
        assert is_subtemplate(small, big)
        assert crc(small) <= crc(big)
        pairs_checked += 1
    elapsed = time.time() - t0
    _report(9, True, f"traces replay, floors hold, {pairs_checked} monotone pairs, {elapsed:.1f}s")


def test_criterion_10_extremal_search_exploration():
    t0 = time.time()
    report = rho_max_search(5, 6, 4)
    elapsed = time.time() - t0
    assert len(report.table) == 34
    assert report.turan_count == 6 ** 8 == 1679616
    assert report.best_count >= report.turan_count
    # spot-check reported counts against independent routes
    by_code = dict(report.table)
    for code, cnt in list(by_code.items()):
        g = parse_graph6(code)
        assert partition_polynomial(g, 4).evaluate(6) == cnt
    spot = [code for code in by_code if parse_graph6(code).edge_count <= 8]
    rng = random.Random(10)
    for code in rng.sample(spot, 3):
        g = parse_graph6(code)
        assert brute_force_count(g, 6, 4) == by_code[code]
    # the argmax is reported as data; no expectation about which graph wins
    _report(
        10,
        elapsed < 600,
        f"34 classes in {elapsed:.1f}s (< 600s); argmax {report.best_graph6} "
        f"with {report.best_count} >= 6^8 = {report.turan_count}",
    )
