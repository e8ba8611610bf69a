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

Each block is enumerated on its own, visiting at most Bell(m_b) states for
its m_b edges.  Partitions are enumerated as restricted growth strings; a
branch dies as soon as some k-clique has all C(k,2) edges placed into
C(k,2) distinct classes.  Once two edges of a clique share a class the
clique can never become rainbow, so its tracking is switched off for the
whole subtree.  Edges are placed in order of decreasing k-clique
participation so that constraints bite early.  Work caps are checked
against the sum of the blocks' partition bounds; free edges cost nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .errors import CapExceeded, UnsupportedSizeError
from .exactmath import falling_factorial, stirling2_row
from .graphs import (
    Graph,
    cliques,
    enumerate_graphs,
    extremal_number,
    parse_graph6,
    write_graph6,
)

DEFAULT_ORACLE_CAP = 10 ** 9
DEFAULT_WORK_CAP = 10 ** 8  # partition states; refuses K6, one 15-edge block (Bell(15))
SPLIT_DEPTH = 4  # partition-prefix depth for parallel work splitting


def _clique_edge_sets(g: Graph, k: int) -> list:
    """The edge ids of every k-clique, one tuple per clique."""
    return [
        tuple(g.edge_id(u, v) for u, v in itertools.combinations(q, 2))
        for q in cliques(g, k)
    ]


def _placement_index(edges, eid_sets):
    """(edge_cliques, clique_sizes) for placing `edges` in order of
    decreasing participation in the cliques `eid_sets`, which must lie
    inside `edges`: per placement position, the indices of the cliques
    through that edge, and per clique, its edge count."""
    participation = dict.fromkeys(edges, 0)
    for eids in eid_sets:
        for e in eids:
            participation[e] += 1
    order = sorted(edges, key=lambda e: (-participation[e], e))
    pos = {e: i for i, e in enumerate(order)}
    edge_cliques = [[] for _ in order]
    for qi, eids in enumerate(eid_sets):
        for e in eids:
            edge_cliques[pos[e]].append(qi)
    return (
        tuple(tuple(ec) for ec in edge_cliques),
        tuple(len(eids) for eids in eid_sets),
    )


def _constraint_index(g: Graph, k: int):
    """Placement index of the whole edge set, free edges included: the
    undecomposed input that the tests' reference enumeration runs on."""
    return _placement_index(range(g.edge_count), _clique_edge_sets(g, k))


def _blocks(g: Graph, k: int):
    """(free, blocks): the number of edges in no k-clique, and one
    (sorted edge ids, clique edge-id tuples) pair per class of edges linked
    by shared k-cliques, in order of each class's first clique."""
    eid_sets = _clique_edge_sets(g, k)
    root = list(range(g.edge_count))

    def find(e: int) -> int:
        while root[e] != e:
            root[e] = root[root[e]]
            e = root[e]
        return e

    for eids in eid_sets:
        for e in eids[1:]:
            root[find(e)] = find(eids[0])
    grouped = {}
    for eids in eid_sets:
        grouped.setdefault(find(eids[0]), []).append(eids)
    blocks = [(sorted({e for eids in qs for e in eids}), qs) for qs in grouped.values()]
    return g.edge_count - sum(len(edges) for edges, _ in blocks), blocks


def _work_estimate(blocks, max_classes: int) -> int:
    return sum(estimate_partition_work(len(edges), max_classes) for edges, _ in blocks)


def _weights_from_prefix(m, edge_cliques, clique_sizes, max_classes, prefix, depth=None):
    """Count valid partitions extending `prefix` (class of edge 0..d-1),
    bucketed by total class count; returns a list of length m+1.  Given a
    `depth`, return instead the restricted-growth prefixes of that length
    that no clique constraint kills, in lexicographic order."""
    nq = len(clique_sizes)
    cl_mask = [0] * nq
    cl_cnt = [0] * nq
    cl_safe = [False] * nq
    weights = [0] * (m + 1)
    classes = list(prefix) + [0] * (m - len(prefix))
    prefixes = []
    end = m if depth is None else depth

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

    used = 0
    for i, c in enumerate(prefix):
        ok, _ = place(i, c)
        if not ok:
            raise ValueError("prefix already violates a clique constraint")
        used = max(used, c + 1)

    def rec(i: int, used: int):
        if i == end:
            if depth is None:
                weights[used] += 1
            else:
                prefixes.append(tuple(classes[:end]))
            return
        top = used + 1 if used < max_classes else used
        for c in range(top):
            ok, trail = place(i, c)
            if ok:
                classes[i] = c
                rec(i + 1, used + 1 if c == used else used)
            unplace(trail)

    rec(len(prefix), used)
    return weights if depth is None else prefixes


def _prefix_task(args):
    return _weights_from_prefix(*args)


def _block_weights(edges, eid_sets, max_classes: int, workers: int) -> list:
    """Partition weights of one block, split across worker processes by
    valid depth-SPLIT_DEPTH prefixes when workers > 1."""
    m = len(edges)
    args = (m, *_placement_index(edges, eid_sets), min(max_classes, m))
    if workers <= 1 or m <= SPLIT_DEPTH:
        return _weights_from_prefix(*args, ())
    prefixes = _weights_from_prefix(*args, (), SPLIT_DEPTH)
    totals = [0] * (m + 1)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        for w in pool.map(_prefix_task, [args + (p,) for p in prefixes]):
            for j, x in enumerate(w):
                totals[j] += x
    return totals


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


def partition_weights(
    g: Graph,
    k: int = 4,
    max_classes: int = None,
    workers: int = 1,
    work_cap: int = None,
) -> tuple:
    """weights[j] = number of edge-set partitions into exactly j classes in
    which no k-clique occupies C(k,2) distinct classes; classes beyond
    max_classes are not explored (their falling-factorial weight is zero
    at the corresponding r).  Free edges and blocks are counted apart and
    combined exactly; work_cap bounds the blocks' summed enumeration."""
    if k < 3:
        raise ValueError("k must be >= 3")
    m = g.edge_count
    if max_classes is None or max_classes > m:
        max_classes = m
    free, blocks = _blocks(g, k)
    if work_cap is not None:
        est = _work_estimate(blocks, max_classes)
        if est > work_cap:
            raise CapExceeded(
                f"estimated {est} partitions exceeds work cap {work_cap}",
                estimate=est,
                cap=work_cap,
            )
    weights = stirling2_row(free)
    for edges, eid_sets in blocks:
        block = _block_weights(edges, eid_sets, max_classes, workers)
        weights = _falling_product(weights, block, max_classes)
    return tuple(w if j <= max_classes else 0 for j, w in enumerate(weights))


def estimate_partition_work(m: int, max_classes: int) -> int:
    """Upper bound on enumerated partitions: partitions of m items into at
    most max_classes classes."""
    row = stirling2_row(m)
    return sum(row[j] for j in range(min(max_classes, m) + 1))


def count_colorings(
    g: Graph, r: int, k: int = 4, workers: int = 1, work_cap: int = None
) -> int:
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
    weights = partition_weights(
        g, k, max_classes=min(r, m), workers=workers, work_cap=work_cap
    )
    return sum(w * falling_factorial(r, j) for j, w in enumerate(weights) if w)


@dataclass(frozen=True)
class PartitionPolynomial:
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
    g: Graph, k: int = 4, workers: int = 1, work_cap: int = DEFAULT_WORK_CAP
) -> PartitionPolynomial:
    weights = partition_weights(g, k, workers=workers, work_cap=work_cap)
    return PartitionPolynomial(g, k, tuple(weights[1:]))


def brute_force_count(g: Graph, r: int, k: int = 4, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Ground-truth oracle: enumerate all r^e(g) colorings and apply a
    direct rainbow test to each (vectorized in fixed-size chunks)."""
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
    eid_sets = _clique_edge_sets(g, k)
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


@dataclass(frozen=True)
class BoundsVerdict:
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


@dataclass(frozen=True)
class SearchReport:
    n: int
    r: int
    k: int
    best_graph6: str
    best_count: int
    turan_exponent: int
    turan_count: int
    best_attains_turan_bound: bool
    table: tuple  # ((graph6, count), ...) in input order


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
    (internal enumeration when graphs is None, n <= 6).  Ties break to the
    lexicographically least graph6 string so reports are reproducible."""
    if graphs is None:
        graphs = list(enumerate_graphs(n))
    else:
        graphs = list(graphs)
        for g in graphs:
            if g.n != n:
                raise ValueError(f"stream graph has {g.n} vertices, expected {n}")
    if not graphs:
        raise ValueError("no graphs to search")
    if work_cap is not None and r >= comb(k, 2):
        est = sum(_work_estimate(_blocks(g, k)[1], r) for g in graphs)
        if est > work_cap:
            raise CapExceeded(
                f"estimated {est} partition states exceeds work cap {work_cap}",
                estimate=est,
                cap=work_cap,
            )
    codes = [write_graph6(g) for g in graphs]
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
