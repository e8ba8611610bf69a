"""Dense small-graph core: bitset graphs, Turan graphs, clique machinery,
k-partite closeness, isomorphism-free enumeration, and graph6 I/O.

Graphs are capped at 64 vertices so every adjacency row fits one machine
word.  Edges carry a fixed identity: the lexicographic position of (u, v),
u < v, in the edge list.  Every other module addresses edges through that
EdgeId, and serialized artifacts rely on it implicitly.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import NamedTuple

from .errors import Graph6ParseError, UnsupportedSizeError

MAX_VERTICES = 64
ENUM_CAP = 6  # internal isomorphism rejection is permutation-based


def all_pairs(n: int) -> list:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


class Graph:
    """Immutable simple graph on vertices 0..n-1 with bitset adjacency."""

    __slots__ = ("n", "adj", "edges", "_eindex", "_k4_cache")

    def __init__(self, n: int, edges):
        if not 0 <= n <= MAX_VERTICES:
            raise UnsupportedSizeError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        adj = [0] * n
        seen = set()
        for u, v in edges:
            if u > v:
                u, v = v, u
            if not (0 <= u < v < n):
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            if (u, v) in seen:
                continue
            seen.add((u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self.edges = tuple(sorted(seen))
        self._eindex = {e: i for i, e in enumerate(self.edges)}
        self._k4_cache = None

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Graph":
        """Build from a bitmask over the lexicographic all-pairs list."""
        pairs = all_pairs(n)
        return cls(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        """False unless u and v are distinct vertices in 0..n-1 joined by an edge."""
        return u != v and 0 <= u < self.n and 0 <= v < self.n and bool(self.adj[u] >> v & 1)

    def edge_id(self, u: int, v: int) -> int:
        return self._eindex[(u, v) if u < v else (v, u)]

    def degree(self, v: int) -> int:
        return bin(self.adj[v]).count("1")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


def complete_graph(n: int) -> Graph:
    return Graph(n, all_pairs(n))


def turan_graph(n: int, parts: int) -> Graph:
    """Complete multipartite graph on n vertices with `parts` classes as
    equal as possible; vertices are assigned to classes in contiguous
    blocks, larger classes first."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    q, s = divmod(n, parts)
    sizes = [q + 1] * s + [q] * (parts - s)
    cls = []
    for i, size in enumerate(sizes):
        cls.extend([i] * size)
    edges = [(u, v) for u, v in all_pairs(n) if cls[u] != cls[v]]
    return Graph(n, edges)


def extremal_number(n: int, k: int) -> int:
    """Maximum edge count of an n-vertex graph without a k-clique: the edges
    of the Turan graph T_{k-1}(n), whose s = n mod (k-1) parts have q+1
    vertices and the others q, with q = n // (k-1).  Plain arithmetic, so
    any n is accepted."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    q, s = divmod(n, k - 1)
    return (n * n - s * (q + 1) ** 2 - (k - 1 - s) * q * q) // 2


def _count_ext(adj, cand: int, k: int) -> int:
    if k == 0:
        return 1
    if k == 1:
        return bin(cand).count("1")
    total = 0
    m = cand
    while m:
        b = m & -m
        v = b.bit_length() - 1
        m ^= b
        total += _count_ext(adj, m & adj[v], k - 1)
    return total


def count_cliques(g: Graph, k: int) -> int:
    """Exact number of k-vertex subsets inducing a complete subgraph."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > g.n:
        return 0
    return _count_ext(g.adj, (1 << g.n) - 1, k)


def cliques(g: Graph, k: int) -> list:
    """All k-cliques as sorted vertex tuples, in lexicographic order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = []

    def rec(cand: int, prefix: tuple):
        if len(prefix) == k:
            out.append(prefix)
            return
        m = cand
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            rec(m & g.adj[v], prefix + (v,))

    rec((1 << g.n) - 1, ())
    return out


def triangles(g: Graph) -> list:
    return cliques(g, 3)


def k4_subgraphs(g: Graph) -> list:
    """4-cliques, cached on the graph (hot path for template counting)."""
    if g._k4_cache is None:
        g._k4_cache = cliques(g, 4)
    return g._k4_cache


def clique_edge_ids(g: Graph, k: int) -> list:
    """The edge ids of every k-clique, one tuple per clique in the order of
    `cliques`, each in the order ab, ac, ..., of its sorted vertices."""
    return [
        tuple(g.edge_id(u, v) for u, v in itertools.combinations(q, 2)) for q in cliques(g, k)
    ]


class ClosenessResult(NamedTuple):
    internal_edges: int
    partition: tuple
    exact: bool


def closeness_to_kpartite(g: Graph, k: int, exact_cap: int = 14) -> ClosenessResult:
    """Minimum number of edges inside classes over all k-partitions of V.

    Exact (branch and bound over canonical class assignments) for
    n <= exact_cap; beyond that a deterministic local-search upper bound
    is returned with exact=False.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = g.n
    if n == 0:
        return ClosenessResult(0, (), True)
    if k == 1:
        return ClosenessResult(g.edge_count, (0,) * n, True)
    if n <= exact_cap:
        return _closeness_exact(g, k)
    return _closeness_local_search(g, k)


def _closeness_exact(g: Graph, k: int) -> ClosenessResult:
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    best_cost = g.edge_count + 1
    best_assign = None
    assign = [-1] * n
    class_masks = [0] * k

    def rec(i: int, used: int, cost: int):
        nonlocal best_cost, best_assign
        if i == n:
            if cost < best_cost:
                best_cost = cost
                best_assign = tuple(assign)
            return
        v = order[i]
        bit = 1 << v
        limit = min(used + 1, k)
        for c in range(limit):
            add = bin(g.adj[v] & class_masks[c]).count("1")
            if cost + add >= best_cost:
                continue
            assign[v] = c
            class_masks[c] |= bit
            rec(i + 1, used + (1 if c == used else 0), cost + add)
            class_masks[c] ^= bit
        assign[v] = -1

    rec(0, 0, 0)
    return ClosenessResult(best_cost, best_assign, True)


def _closeness_local_search(g: Graph, k: int, restarts: int = 8) -> ClosenessResult:
    import random

    n = g.n
    rng = random.Random(0xC105E)
    best_cost = None
    best_assign = None
    base_order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    for trial in range(restarts):
        order = list(base_order)
        if trial:
            rng.shuffle(order)
        assign = [0] * n
        masks = [0] * k
        for v in order:
            c = min(range(k), key=lambda c: bin(g.adj[v] & masks[c]).count("1"))
            assign[v] = c
            masks[c] |= 1 << v
        improved = True
        while improved:
            improved = False
            for v in range(n):
                cur = assign[v]
                masks[cur] ^= 1 << v
                costs = [bin(g.adj[v] & masks[c]).count("1") for c in range(k)]
                c = min(range(k), key=lambda c: (costs[c], c))
                if costs[c] < costs[cur]:
                    improved = True
                    assign[v] = c
                    masks[c] |= 1 << v
                else:
                    masks[cur] |= 1 << v
        cost = sum(bin(g.adj[u] & masks[assign[u]]).count("1") for u in range(n)) // 2
        if best_cost is None or cost < best_cost:
            best_cost, best_assign = cost, tuple(assign)
    return ClosenessResult(best_cost, best_assign, False)


# ---------------------------------------------------------------------------
# Isomorphism-free enumeration (n <= 6: minimal-mask canonical form over all
# vertex permutations; larger inputs must come from external graph6 files).

def _perm_edge_maps(n: int) -> list:
    pairs = all_pairs(n)
    idx = {e: i for i, e in enumerate(pairs)}
    maps = []
    for p in itertools.permutations(range(n)):
        maps.append(tuple(idx[tuple(sorted((p[u], p[v])))] for u, v in pairs))
    return maps


def enumerate_graphs(n: int):
    """Yield one representative per isomorphism class of simple graphs on
    n vertices, as the lexicographically least edge-bitmask in each class.
    Deterministic single-producer stream."""
    if n > ENUM_CAP:
        raise UnsupportedSizeError(
            f"internal enumeration capped at n={ENUM_CAP}; supply a graph6 stream"
        )
    if n < 0:
        raise ValueError("n must be >= 0")
    m = comb(n, 2)
    maps = _perm_edge_maps(n)
    seen = bytearray(1 << m)
    for mask in range(1 << m):
        if seen[mask]:
            continue
        yield Graph.from_mask(n, mask)
        for emap in maps:
            pm = 0
            rest = mask
            while rest:
                b = rest & -rest
                rest ^= b
                pm |= 1 << emap[b.bit_length() - 1]
            seen[pm] = 1


# ---------------------------------------------------------------------------
# graph6 (the standard 6-bit ASCII encoding, upper triangle in column order)

_G6_HEADER = ">>graph6<<"


def write_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(63 + int("".join(map(str, bits[i : i + 6])), 2)) for i in range(0, len(bits), 6)]
    return head + "".join(chars)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    if not s:
        raise Graph6ParseError("empty graph6 string", 0)
    pos = 0
    first = ord(s[0])
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise Graph6ParseError("256-bit graph6 sizes unsupported (n > 64 cap)", 1)
        if len(s) < 4:
            raise Graph6ParseError("truncated long-form size header", len(s))
        n = 0
        for i in range(1, 4):
            c = ord(s[i])
            if not 63 <= c <= 126:
                raise Graph6ParseError(f"size byte {s[i]!r} out of range", i)
            n = n << 6 | (c - 63)
        pos = 4
    else:
        if not 63 <= first <= 126:
            raise Graph6ParseError(f"size byte {s[0]!r} out of range", 0)
        n = first - 63
        pos = 1
    if n > MAX_VERTICES:
        raise UnsupportedSizeError(f"graph6 input has n={n} > {MAX_VERTICES}")
    nbits = comb(n, 2)
    nchars = (nbits + 5) // 6
    if len(s) - pos < nchars:
        raise Graph6ParseError(
            f"truncated payload: need {nchars} bytes, have {len(s) - pos}", len(s)
        )
    if len(s) - pos > nchars:
        raise Graph6ParseError("trailing bytes after graph6 payload", pos + nchars)
    bits = []
    for i in range(nchars):
        c = ord(s[pos + i])
        if not 63 <= c <= 126:
            raise Graph6ParseError(f"payload byte {s[pos + i]!r} out of range", pos + i)
        val = c - 63
        bits.extend(val >> sh & 1 for sh in (5, 4, 3, 2, 1, 0))
    for i in range(nbits, len(bits)):
        if bits[i]:
            raise Graph6ParseError("nonzero padding bits", pos + i // 6)
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return Graph(n, edges)


def graph6_codes(lines):
    """The codes of a newline-delimited graph6 stream: stripped lines,
    skipping blank lines and a bare header line."""
    for line in lines:
        line = line.strip()
        if line and line != _G6_HEADER:
            yield line
