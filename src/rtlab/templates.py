"""Color-list templates on a host graph and rainbow K4 counting.

A template assigns each edge a subset of the colors 1..r; an edge coloring
is the all-singleton special case.  A rainbow copy of K4 is a choice of
six (edge, color) pairs whose edges form a K4 and whose colors are
pairwise distinct, each drawn from its edge's list.  One batched numpy
kernel counts them: the first time a template is asked about any K4, it
fills the template's table of copies on every host K4, and whole-host
counts, the per-triangle counts of cleaning and row materialization read
that table.

Lists are stored as bitmasks (bit c-1 set means color c is allowed);
user-facing colors are always the integers 1..r.
"""

from __future__ import annotations

import itertools
import json

from .errors import UnsupportedSizeError
from .exactmath import SET_PARTITIONS
from .graphs import Graph, k4_subgraphs, parse_graph6, write_graph6

MAX_COLORS = 64


class Template:
    """Per-edge color lists over a fixed host graph.  Immutable."""

    __slots__ = ("graph", "r", "masks", "_k4_copies")

    def __init__(self, graph: Graph, r: int, masks):
        if not 1 <= r <= MAX_COLORS:
            raise UnsupportedSizeError(f"color count {r} outside 1..{MAX_COLORS}")
        masks = tuple(masks)
        if len(masks) != graph.edge_count:
            raise ValueError(
                f"need {graph.edge_count} lists, got {len(masks)}"
            )
        full = (1 << r) - 1
        for i, m in enumerate(masks):
            if m & ~full:
                raise ValueError(f"list for edge {i} has colors outside 1..{r}")
        self.graph = graph
        self.r = r
        self.masks = masks
        self._k4_copies = None  # sorted K4 vertex tuple -> rainbow copies on it

    def list_of(self, edge_id: int) -> tuple:
        """Colors of one edge list, ascending, 1-based."""
        m = self.masks[edge_id]
        return tuple(c + 1 for c in range(self.r) if m >> c & 1)

    def list_size(self, edge_id: int) -> int:
        return bin(self.masks[edge_id]).count("1")

    def lists(self) -> tuple:
        return tuple(self.list_of(i) for i in range(len(self.masks)))

    def __eq__(self, other):
        return (
            isinstance(other, Template)
            and self.graph == other.graph
            and self.r == other.r
            and self.masks == other.masks
        )

    def __hash__(self):
        return hash((self.graph, self.r, self.masks))

    def __repr__(self):
        return f"Template(n={self.graph.n}, m={self.graph.edge_count}, r={self.r})"


def colors_to_mask(colors, r: int) -> int:
    m = 0
    for c in colors:
        if not 1 <= c <= r:
            raise ValueError(f"color {c} outside 1..{r}")
        m |= 1 << (c - 1)
    return m


def complete_template(g: Graph, r: int) -> Template:
    full = (1 << r) - 1
    return Template(g, r, (full,) * g.edge_count)


def from_coloring(g: Graph, colors, r: int) -> Template:
    """Singleton-list template of an edge coloring (one color per EdgeId)."""
    colors = list(colors)
    if len(colors) != g.edge_count:
        raise ValueError(f"need {g.edge_count} colors, got {len(colors)}")
    return Template(g, r, tuple(colors_to_mask([c], r) for c in colors))


def is_subtemplate(a: Template, b: Template) -> bool:
    if a.graph != b.graph or a.r != b.r:
        raise ValueError("incompatible templates: host graph and r must match")
    return all(ma & ~mb == 0 for ma, mb in zip(a.masks, b.masks))


def lift_template(t: Template, threshold: int = 6) -> Template:
    """Replace every list of size >= threshold by the full color set."""
    full = (1 << t.r) - 1
    return Template(
        t.graph,
        t.r,
        tuple(full if bin(m).count("1") >= threshold else m for m in t.masks),
    )


def list_product(t: Template, v: int) -> int:
    """Product of list sizes over the host edges at v (empty product = 1)."""
    if not 0 <= v < t.graph.n:
        raise ValueError(f"vertex {v} out of range")
    out = 1
    m = t.graph.adj[v]
    while m:
        b = m & -m
        u = b.bit_length() - 1
        m ^= b
        out *= t.list_size(t.graph.edge_id(v, u))
    return out


def r_neighborhood(t: Template, v: int) -> int:
    """Bitset of neighbors joined to v by a full list (|L(uv)| = r)."""
    if not 0 <= v < t.graph.n:
        raise ValueError(f"vertex {v} out of range")
    full = (1 << t.r) - 1
    out = 0
    m = t.graph.adj[v]
    while m:
        b = m & -m
        u = b.bit_length() - 1
        m ^= b
        if t.masks[t.graph.edge_id(v, u)] == full:
            out |= b
    return out


# ---------------------------------------------------------------------------
# Counting distinct-color selections by Moebius inversion on the lattice of
# set partitions of the lists: 2^q list intersections and Bell(q) terms
# (203 for the six lists of a K4), whatever the number of colors.  One numpy
# kernel takes a whole batch of rows, such as every K4 of a template.

# Rows per pass of the Moebius sum, by list count q: as many as keep a
# pass's working set within 1 MiB (278 rows at q = 6), so a pass stays in
# cache and its memory does not grow with the batch.  Per row that is 2^q + 1
# int64 list sizes, Bell(q) int64 terms and one Bell(q) gather of sizes; the
# 2^q intersections are freed before the terms exist, and 2^q <= 2 Bell(q).
_PASS_ROWS = tuple(
    2 ** 20 // (8 * (2 ** q + 1 + 2 * len(SET_PARTITIONS[q]))) for q in range(7)
)


def count_distinct_choices(rows, forbidden: int = 0) -> list:
    """For each row of at most 6 masks (every row of one call has the same
    length), the number of ways to pick pairwise-distinct colors c_i from
    masks[i], avoiding colors in `forbidden`: the sum over set partitions pi
    of mu(0, pi) times, over the blocks B of pi, the number of allowed
    colors common to every list in B.  An empty row counts 1.  Each term is
    at most 64^6 * 5! < 2^44, so the int64 sums are exact."""
    import numpy as np

    rows = np.asarray(rows, dtype=np.uint64)
    if rows.size == 0 and rows.ndim == 1:
        return []
    if rows.ndim != 2:
        raise ValueError(f"rows must be a 2-D batch of masks, not shape {rows.shape}")
    q = rows.shape[1]
    if q > 6:
        raise ValueError(f"at most 6 lists, got {q}")
    parts = SET_PARTITIONS[q]
    mu = np.array([m for m, _ in parts], dtype=np.int64)
    # blocks[k][p]: k-th block of partition p, padded with a row of ones
    ones = 1 << q
    blocks = np.full((max(q, 1), len(parts)), ones, dtype=np.intp)
    for p, (_, bs) in enumerate(parts):
        blocks[: len(bs), p] = bs
    allowed = np.uint64(~forbidden & (1 << 64) - 1)
    cols = rows.T
    step = _PASS_ROWS[q]
    out = []
    for at in range(0, rows.shape[0], step):
        chunk = cols[:, at : at + step]
        inter = np.empty((ones, chunk.shape[1]), dtype=np.uint64)
        inter[0] = allowed  # inter[S]: colors allowed on every list in S
        for s in range(1, ones):
            low = s & -s
            np.bitwise_and(inter[s ^ low], chunk[low.bit_length() - 1], out=inter[s])
        size = np.ones((ones + 1, chunk.shape[1]), dtype=np.int64)
        size[:ones] = np.bitwise_count(inter)
        del inter
        terms = size[blocks[0]]
        for b in blocks[1:]:
            terms *= size[b]
        out += (mu @ terms).tolist()
    return out


def k4_rainbow_copies(t: Template) -> dict:
    """Rainbow copies on every host K4, keyed by its sorted vertex tuple:
    counted by one kernel call the first time any K4 is asked for, and kept
    on the template."""
    if t._k4_copies is None:
        import numpy as np

        g = t.graph
        quads = k4_subgraphs(g)
        rows = []
        if quads:
            eid = np.zeros((g.n, g.n), dtype=np.intp)
            eid[tuple(np.array(g.edges).T)] = np.arange(g.edge_count)
            masks = np.array(t.masks, dtype=np.uint64)
            verts = np.array(quads, dtype=np.intp).T
            # the six lists of each K4 in the order ab, ac, ad, bc, bd, cd
            rows = np.stack(
                [masks[eid[verts[a], verts[b]]] for a, b in itertools.combinations(range(4), 2)],
                axis=1,
            )
        t._k4_copies = dict(zip(quads, count_distinct_choices(rows)))
    return t._k4_copies


def count_rainbow_copies(t: Template) -> int:
    """Exact number of rainbow K4 copies in the template."""
    return sum(k4_rainbow_copies(t).values())


def count_rainbow_copies_through_triangle(t: Template, tri, sub: Graph = None) -> int:
    """Rainbow copies, as (edge, color) pair sets, whose underlying K4 lies
    inside `sub` and contains the triangle `tri`."""
    g = t.graph
    if sub is None:
        sub = g
    if sub.n != g.n or any(s & ~h for s, h in zip(sub.adj, g.adj)):
        raise ValueError("sub must be a subgraph of the template host")
    a, b, c = sorted(tri)
    if len({a, b, c}) != 3 or not (
        sub.has_edge(a, b) and sub.has_edge(a, c) and sub.has_edge(b, c)
    ):
        raise ValueError(f"{tri} is not a triangle of the subgraph")
    copies = k4_rainbow_copies(t)
    total = 0
    ext = sub.adj[a] & sub.adj[b] & sub.adj[c]
    while ext:
        bit = ext & -ext
        ext ^= bit
        d = bit.bit_length() - 1
        # the K4's key is its sorted vertex tuple: d goes where it sorts
        if d < b:
            key = (d, a, b, c) if d < a else (a, d, b, c)
        else:
            key = (a, b, d, c) if d < c else (a, b, c, d)
        total += copies[key]
    return total


# ---------------------------------------------------------------------------
# Serialization: JSON object {graph: graph6, r: int, lists: [[colors]]}
# with lists indexed by EdgeId.

def template_to_dict(t: Template) -> dict:
    return {
        "graph": write_graph6(t.graph),
        "r": t.r,
        "lists": [list(t.list_of(i)) for i in range(t.graph.edge_count)],
    }


def template_from_dict(d: dict) -> Template:
    g = parse_graph6(d["graph"])
    r = int(d["r"])
    lists = d["lists"]
    if len(lists) != g.edge_count:
        raise ValueError(
            f"template has {len(lists)} lists but graph has {g.edge_count} edges"
        )
    return Template(g, r, tuple(colors_to_mask(colors, r) for colors in lists))


def template_to_json(t: Template) -> str:
    return json.dumps(template_to_dict(t), sort_keys=True)


def template_from_json(s: str) -> Template:
    return template_from_dict(json.loads(s))
