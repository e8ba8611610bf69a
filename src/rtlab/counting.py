"""Exact counting of rainbow-K_k-free r-edge-colorings and extremal search.

A coloring phi: E -> [r] decomposes uniquely into a set partition of E
(color classes) plus an injective class-to-color assignment, and a k-clique
is rainbow exactly when its C(k,2) edges sit in pairwise distinct classes.
Counting therefore runs over set partitions of the edge set:

    count = sum over valid partitions with j classes of r(r-1)...(r-j+1)

which yields every r at once.  The weights factor before anything is
enumerated.  Edges are linked when they share a k-clique; the classes of
that linkage are the blocks, and edges in no k-clique are free.  Whether a
partition is valid depends only on its restriction to each block, so the
count for r colors is r^free times the product of the blocks' counts.  In
the falling-factorial basis x^(j) = x(x-1)...(x-j+1) that product is

    x^(a) x^(b) = sum_t C(a,t) C(b,t) t! x^(a+b-t)

(merge t classes of one side with t of the other), and the free edges
contribute the Stirling row S(free, j), their unconstrained weights.  A
K_k-free host is the case of no blocks.  Coefficient j of a product needs
only input coefficients <= j, so capping every factor at max_classes
classes is exact.

A block is its clique bitmasks: its m_b edges take positions 0..m_b-1 in
order of decreasing k-clique participation, then edge id, and each clique
is the mask of its edges' positions.  It is counted by inclusion-exclusion
over the sets S of its cliques: the partitions making every clique of S
rainbow number S(uncovered, .) (x) P(H_S), where the edges S leaves
uncovered are free and P(H_S)[j] counts the partitions of the covered
edges into j independent sets of H_S, the graph joining two edges when a
clique of S holds both.  Then weights = sum_S (-1)^|S| S(uncovered, .) (x)
P(H_S).  P(H_S) is enumerated by restricted growth with at most
prod_i (1 + earlier vertices not adjacent to vertex i) leaves; the sum of
those products over all S is the block's leaf estimate, and work caps
are checked against the sum of the blocks' estimates (free edges cost
nothing).  That sum stops at the first block that takes it past the cap
and is not formed when 2^q cliques already pass it.
"""

from __future__ import annotations

import itertools
from math import comb, factorial
from typing import NamedTuple

from .errors import CapExceeded, UnsupportedSizeError
from .exactmath import falling_factorial, stirling2_row
from .graphs import (
    Graph,
    clique_edge_ids,
    enumerate_graphs,
    extremal_number,
    parse_graph6,
    write_graph6,
)

DEFAULT_ORACLE_CAP = 10 ** 9
DEFAULT_WORK_CAP = 10 ** 8  # inclusion-exclusion leaves; refuses K6 and K6-e


def _blocks(g: Graph, k: int):
    """(free, blocks): the number of edges in no k-clique, and one
    (m_b, clique masks) pair per class of edges linked by shared k-cliques,
    in order of each class's first clique.  A block's m_b edges take
    positions in order of decreasing k-clique participation, then edge id,
    and each clique is the bitmask of its edges' positions."""
    eid_sets = clique_edge_ids(g, k)
    root = list(range(g.edge_count))
    participation = [0] * g.edge_count

    def find(e: int) -> int:
        while root[e] != e:
            root[e] = root[root[e]]
            e = root[e]
        return e

    for eids in eid_sets:
        for e in eids:
            participation[e] += 1
        for e in eids[1:]:
            root[find(e)] = find(eids[0])
    grouped = {}
    for eids in eid_sets:
        grouped.setdefault(find(eids[0]), []).append(eids)
    blocks = []
    for qs in grouped.values():
        order = sorted({e for eids in qs for e in eids}, key=lambda e: (-participation[e], e))
        bit = {e: 1 << pos for pos, e in enumerate(order)}
        blocks.append((len(order), [sum(bit[e] for e in eids) for eids in qs]))
    return g.edge_count - sum(m for m, _ in blocks), blocks


def _falling_product(a, b, top: int) -> list:
    """Falling-factorial coefficients of the product of the polynomials with
    falling-factorial coefficients a and b, through index `top` (zero
    above): x^(i) x^(j) = sum_t C(i,t) C(j,t) t! x^(i+j-t)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if not y:
                continue
            for t in range(max(0, i + j - top), min(i, j) + 1):
                out[i + j - t] += x * y * comb(i, t) * comb(j, t) * factorial(t)
    return out


def _clique_set_graphs(masks):
    """Per set S of cliques (bitmask over `masks`): (|S| odd, covered-edge
    mask, H_S as (vertex bit, mask of the vertex and its neighbours) pairs
    in placement order); two edges are adjacent when a clique of S holds
    both."""
    for s in range(1 << len(masks)):
        adj = {}
        cover = 0
        for q, cm in enumerate(masks):
            if s >> q & 1:
                cover |= cm
                rest = cm
                while rest:
                    bit = rest & -rest
                    adj[bit] = adj.get(bit, 0) | cm
                    rest ^= bit
        yield s.bit_count() & 1, cover, sorted(adj.items())


def _ie_estimate(masks, bound: int) -> int:
    """Leaf bound of the inclusion-exclusion engine: sum over S of
    prod_i (1 + earlier vertices of H_S not adjacent to vertex i).  Stops
    at the first partial sum past `bound` and returns it, or 2^q when
    that alone passes it; each term is at least 1."""
    total = 1 << len(masks)
    if total > bound:
        return total
    total = 0
    for _, _, vertices in _clique_set_graphs(masks):
        leaves = 1
        earlier = 0
        for bit, adj in vertices:
            leaves *= 1 + (earlier & ~adj).bit_count()
            earlier |= bit
        total += leaves
        if total > bound:
            return total
    return total


def _independent_partitions(vertices, top: int) -> list:
    """w[j] = partitions of the vertices into j independent sets, j <= top,
    by restricted growth over (vertex bit, closed neighbourhood) pairs; the
    last vertex is counted, not placed."""
    if not vertices:
        return [1]
    weights = [0] * (len(vertices) + 1)
    classes = []
    last = len(vertices) - 1

    def rec(i: int):
        bit, adj = vertices[i]
        used = len(classes)
        if i == last:
            weights[used] += sum(1 for c in classes if not c & adj)
            if used < top:
                weights[used + 1] += 1
            return
        for c in range(used):
            if not classes[c] & adj:
                classes[c] |= bit
                rec(i + 1)
                classes[c] ^= bit
        if used < top:
            classes.append(bit)
            rec(i + 1)
            classes.pop()

    rec(0)
    return weights


def _ie_block_weights(m: int, masks, max_classes: int) -> list:
    """Partition weights of the block of m edges with clique masks `masks`
    by inclusion-exclusion over its clique sets:
    sum_S (-1)^|S| S(uncovered, .) (x) P(H_S)."""
    top = min(max_classes, m)
    totals = [0] * (m + 1)
    for odd, cover, vertices in _clique_set_graphs(masks):
        term = _falling_product(
            stirling2_row(m - cover.bit_count()),
            _independent_partitions(vertices, top),
            top,
        )
        for j, x in enumerate(term):
            totals[j] += -x if odd else x
    return totals


def _check_work(block_lists, cap: int) -> None:
    """Raise CapExceeded when the leaf estimates of the blocks in
    `block_lists` sum past cap.  The sum stops at the first block that
    takes it past, so a refusal reports a lower bound above the cap."""
    est = 0
    for blocks in block_lists:
        for _, masks in blocks:
            est += _ie_estimate(masks, cap - est)
            if est > cap:
                raise CapExceeded(
                    f"estimated {est} enumeration leaves exceeds work cap {cap}",
                    estimate=est,
                    cap=cap,
                )


def partition_weights(
    g: Graph,
    k: int = 4,
    max_classes: int = None,
    work_cap: int = None,
) -> tuple:
    """weights[j] = number of edge-set partitions into exactly j classes in
    which no k-clique occupies C(k,2) distinct classes; classes beyond
    max_classes are not explored (their falling-factorial weight is zero
    at the corresponding r).  Free edges and blocks are counted apart and
    combined exactly; work_cap bounds the sum of the blocks' leaf
    estimates."""
    if k < 3:
        raise ValueError("k must be >= 3")
    m = g.edge_count
    if max_classes is None or max_classes > m:
        max_classes = m
    free, blocks = _blocks(g, k)
    if work_cap is not None:
        _check_work([blocks], work_cap)
    weights = stirling2_row(free)
    for m_b, masks in blocks:
        block = _ie_block_weights(m_b, masks, max_classes)
        weights = _falling_product(weights, block, max_classes)
    return tuple(w if j <= max_classes else 0 for j, w in enumerate(weights))


def count_colorings(g: Graph, r: int, k: int = 4, work_cap: int = None) -> int:
    """Number of r-edge-colorings of g with no rainbow k-clique, exact.

    If r < C(k,2), no coloring can be rainbow and the answer is r^e(g)
    directly.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if r > 64:
        raise UnsupportedSizeError(f"color count {r} > 64")
    if k < 3:
        raise ValueError("k must be >= 3")
    m = g.edge_count
    if r < comb(k, 2):
        return r ** m
    weights = partition_weights(g, k, max_classes=min(r, m), work_cap=work_cap)
    return sum(w * falling_factorial(r, j) for j, w in enumerate(weights) if w)


class PartitionPolynomial(NamedTuple):
    """coeffs[j-1] = S_j = number of valid j-class partitions of E(g);
    evaluating sum_j S_j r(r-1)...(r-j+1) reproduces count_colorings."""

    graph: Graph
    k: int
    coeffs: tuple

    def evaluate(self, r: int) -> int:
        if r < 0:
            raise ValueError("r must be >= 0")
        if self.graph.edge_count == 0:
            return 1
        return sum(
            s * falling_factorial(r, j + 1) for j, s in enumerate(self.coeffs) if s
        )


def partition_polynomial(
    g: Graph, k: int = 4, work_cap: int = DEFAULT_WORK_CAP
) -> PartitionPolynomial:
    weights = partition_weights(g, k, work_cap=work_cap)
    return PartitionPolynomial(g, k, tuple(weights[1:]))


def brute_force_count(g: Graph, r: int, k: int = 4, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Ground-truth oracle: enumerate all r^e(g) colorings and apply a
    direct rainbow test to each (vectorized in fixed-size chunks)."""
    import numpy as np

    if r < 1:
        raise ValueError("r must be >= 1")
    if k < 3:
        raise ValueError("k must be >= 3")
    m = g.edge_count
    total = r ** m
    if total > cap:
        raise CapExceeded(
            f"{total} colorings exceeds oracle cap {cap}", estimate=total, cap=cap
        )
    if m == 0:
        return 1
    eid_sets = clique_edge_ids(g, k)
    ck2 = comb(k, 2)
    pairs = list(itertools.combinations(range(ck2), 2))
    powers = np.array([r ** i for i in range(m)], dtype=np.int64)
    count = 0
    chunk = 1 << 18
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % r
        bad = np.zeros(stop - start, dtype=bool)
        for eids in eid_sets:
            cols = digits[:, eids]
            rainbow = np.ones(stop - start, dtype=bool)
            for a, b in pairs:
                rainbow &= cols[:, a] != cols[:, b]
            bad |= rainbow
        count += (stop - start) - int(np.count_nonzero(bad))
    return count


class BoundsVerdict(NamedTuple):
    """Which lower-bound family dominates asymptotically at (r, k):
    (C(k,2)-1)-colorings of the complete graph versus r-colorings of the
    Turan graph, decided by the exact integer test
    (C(k,2)-1)^(k-1) > r^(k-2)."""

    r: int
    k: int
    verdict: str
    clique_side: int
    turan_side: int


def bounds_compare(r: int, k: int) -> BoundsVerdict:
    if r < 1:
        raise ValueError("r must be >= 1")
    if k < 3:
        raise ValueError("k must be >= 3")
    clique_side = (comb(k, 2) - 1) ** (k - 1)
    turan_side = r ** (k - 2)
    verdict = "clique-coloring" if clique_side > turan_side else "turan"
    return BoundsVerdict(r, k, verdict, clique_side, turan_side)


class SearchReport(NamedTuple):
    n: int
    r: int
    k: int
    best_graph6: str
    best_count: int
    turan_exponent: int
    turan_count: int
    best_attains_turan_bound: bool
    table: tuple  # ((graph6, count), ...) per distinct code, in input order


def _search_task(args):
    g6, r, k = args
    return count_colorings(parse_graph6(g6), r, k)


def rho_max_search(
    n: int,
    r: int,
    k: int = 4,
    graphs=None,
    workers: int = 1,
    work_cap: int = None,
) -> SearchReport:
    """Maximize count_colorings over the supplied isomorphism classes
    (internal enumeration when graphs is None, n <= 6).  Graphs with the
    same graph6 code are one class, listed where it first occurs; two
    labellings of one class stay two.  Ties break to the lexicographically
    least graph6 string so reports are reproducible."""
    by_code = {}
    for g in enumerate_graphs(n) if graphs is None else graphs:
        if g.n != n:
            raise ValueError(f"stream graph has {g.n} vertices, expected {n}")
        by_code.setdefault(write_graph6(g), g)
    if not by_code:
        raise ValueError("no graphs to search")
    codes, graphs = list(by_code), list(by_code.values())
    if work_cap is not None and r >= comb(k, 2):
        _check_work((_blocks(g, k)[1] for g in graphs), work_cap)
    if workers > 1 and len(graphs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(_search_task, [(c, r, k) for c in codes]))
    else:
        counts = [count_colorings(g, r, k) for g in graphs]
    table = tuple(zip(codes, counts))
    best_count = max(counts)
    best_graph6 = min(c for c, x in table if x == best_count)
    ex = extremal_number(n, k)
    turan_count = r ** ex
    return SearchReport(
        n=n,
        r=r,
        k=k,
        best_graph6=best_graph6,
        best_count=best_count,
        turan_exponent=ex,
        turan_count=turan_count,
        best_attains_turan_bound=best_count >= turan_count,
        table=table,
    )
