"""Graph cleaning machinery on templates: singleton-edge removal, the two
deletion operations with exact guards, replayable traces, critical
triangles/edges/vertices, and the supersaturation bound.

All guard decisions are float-free; xi is an exact rational.  The
operation-1 threshold r^((2-xi^2)(n_i-1)/3) is decided exactly by
`exactmath.cmp_value_rpow`: bit lengths, exact ties by unique
factorization, certified logarithms in integer fixed point, and integer
cross-powering as the last resort.  The critical-set thresholds n^(5/6),
n_p^(11/12), n_p^(23/12) are decided by cross-powering to integer
exponents.  Euler's number only enters through a pinned certified
enclosure and guards take its conservative side.

State model: cleaning never relabels vertices.  The current graph G_i is
the host restricted to the surviving ("alive") vertex set, keeping only
edges whose lists have at least two colors (the G_0 rule), so templates
stay indexed by host EdgeId throughout.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .exactmath import EULER_HI, EULER_LO, cmp_value_rpow
from .graphs import Graph, triangles
from .templates import Template, count_rainbow_copies_through_triangle


def xi_from_delta(delta) -> Fraction:
    """Default cleaning slack xi = delta / (300 e^6), taken against the
    upper end of the Euler enclosure so the result is a certified lower
    bound of the true value."""
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    return delta / (300 * EULER_HI ** 6)


class _CleaningFields(NamedTuple):
    r: int
    xi: Fraction
    original_n: int
    priority: tuple = (1, 2)


class CleaningConfig(_CleaningFields):
    """The cleaning parameters, checked and coerced on construction: xi
    becomes a Fraction and priority a tuple.  `_replace` and `_make`
    construct through the same checks."""

    __slots__ = ()

    def __new__(cls, r, xi, original_n, priority=(1, 2)):
        xi = Fraction(xi)
        if not 0 < xi < 1:
            raise ValueError("xi must satisfy 0 < xi < 1")
        if r < 2:
            raise ValueError("r must be >= 2")
        if original_n < 1:
            raise ValueError("original_n must be >= 1")
        priority = tuple(priority)
        if priority not in ((1, 2), (2, 1)):
            raise ValueError("priority must be (1, 2) or (2, 1)")
        return super().__new__(cls, r, xi, original_n, priority)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def remove_singleton_edges(t: Template) -> Graph:
    """The spanning subgraph G_0: exactly the edges with |L(e)| >= 2."""
    return state_graph(t, range(t.graph.n))


def state_graph(t: Template, alive) -> Graph:
    """Host restricted to alive vertices, minus short-list edges."""
    alive = set(alive)
    keep = [
        (u, v)
        for i, (u, v) in enumerate(t.graph.edges)
        if u in alive and v in alive and t.list_size(i) >= 2
    ]
    return Graph(t.graph.n, keep)


def _alive_list(t: Template, alive) -> list:
    """Alive vertices in ascending order, all host vertices when None."""
    alive = list(range(t.graph.n)) if alive is None else sorted(alive)
    if len(set(alive)) != len(alive) or not set(alive) <= set(range(t.graph.n)):
        raise ValueError(f"alive vertices must be distinct and lie in 0..{t.graph.n - 1}")
    return alive


def _op1_witness(t: Template, g: Graph, cfg: CleaningConfig, v: int, n_i: int):
    """(fires, witness) for the small-list-product guard at vertex v."""
    prod = 1
    m = g.adj[v]
    while m:
        b = m & -m
        u = b.bit_length() - 1
        m ^= b
        prod *= t.list_size(t.graph.edge_id(v, u))
    p, q = cfg.xi.numerator, cfg.xi.denominator
    exp_num = (2 * q * q - p * p) * (n_i - 1)
    exp_den = 3 * q * q
    fires = cmp_value_rpow(prod, cfg.r, exp_num, exp_den) <= 0
    witness = {
        "vertex": v,
        "list_product": str(prod),
        "exponent_num": str(exp_num),
        "exponent_den": str(exp_den),
    }
    return fires, witness


def operation1_step(t: Template, cfg: CleaningConfig, alive=None):
    """Least-index alive vertex whose incident list-size product is at most
    r^((2-xi^2)(n_i-1)/3), or None.  Returns (vertex, witness)."""
    alive = _alive_list(t, alive)
    n_i = len(alive)
    g = state_graph(t, alive)
    for v in alive:
        fires, wit = _op1_witness(t, g, cfg, v, n_i)
        if fires:
            return v, wit
    return None, None


def operation2_step(t: Template, cfg: CleaningConfig, alive=None):
    """First (lexicographic) non-critical triangle that has a large joint
    neighborhood, one full list, and a second list of size >= 3; or None.
    Returns (triangle, witness)."""
    alive = _alive_list(t, alive)
    n_i = len(alive)
    g = state_graph(t, alive)
    p2 = cfg.xi.numerator ** 2
    q2 = cfg.xi.denominator ** 2
    n_orig = cfg.original_n
    for u, v, w in triangles(g):
        sizes = sorted(
            (
                t.list_size(t.graph.edge_id(u, v)),
                t.list_size(t.graph.edge_id(u, w)),
                t.list_size(t.graph.edge_id(v, w)),
            ),
            reverse=True,
        )
        if sizes[0] != cfg.r or sizes[1] < 3 or sizes[2] < 2:
            continue
        joint = bin(g.adj[u] & g.adj[v] & g.adj[w]).count("1")
        if joint * q2 < 19 * p2 * (n_i - 3):
            continue
        cnt = count_rainbow_copies_through_triangle(t, (u, v, w), sub=g)
        if cnt ** 6 >= n_orig ** 5:
            continue  # critical triangle: not removable
        witness = {
            "triangle": [u, v, w],
            "list_sizes": sizes,
            "joint_neighbors": joint,
            "rainbow_copies_through": str(cnt),
        }
        return (u, v, w), witness
    return None, None


class CleanStep(NamedTuple):
    op: int
    removed: tuple
    n_before: int
    n_after: int
    witness: dict
    survivors: tuple  # alive vertices after the step: the G_{i+1} snapshot


class CleaningTrace(NamedTuple):
    r: int
    xi: Fraction
    original_n: int
    priority: tuple
    steps: tuple
    final_vertices: tuple
    stop_reason: str


def clean(t: Template, cfg: CleaningConfig) -> CleaningTrace:
    """Apply the configured operation priority until the vertex count falls
    to xi^2 * n or nothing fires.  The trace replays bit-exactly."""
    if cfg.r != t.r:
        raise ValueError("config r does not match the template")
    if cfg.original_n != t.graph.n:
        raise ValueError("config original_n does not match the host")
    p2 = cfg.xi.numerator ** 2
    q2 = cfg.xi.denominator ** 2
    alive = list(range(t.graph.n))
    steps = []
    while len(alive) * q2 > p2 * cfg.original_n:
        for op in cfg.priority:
            # looked up by name on every call, so rebinding the module's
            # operation functions (as a tracer does) takes effect here
            found, wit = (operation1_step if op == 1 else operation2_step)(t, cfg, alive)
            if found is not None:
                break
        else:
            reason = "no operation applicable"
            break
        removed = (found,) if op == 1 else found
        n_before = len(alive)
        alive = [x for x in alive if x not in removed]
        steps.append(
            CleanStep(
                op=op,
                removed=removed,
                n_before=n_before,
                n_after=len(alive),
                witness=wit,
                survivors=tuple(alive),
            )
        )
    else:
        reason = "size <= xi^2 n"
    return CleaningTrace(
        r=cfg.r,
        xi=cfg.xi,
        original_n=cfg.original_n,
        priority=cfg.priority,
        steps=tuple(steps),
        final_vertices=tuple(alive),
        stop_reason=reason,
    )


def verify_trace(t: Template, cfg: CleaningConfig, trace: CleaningTrace) -> bool:
    """Re-run the cleaning from the original template and compare the
    result with the recorded trace bit-exactly: configuration, operations,
    removals, counts, witnesses, survivors and stop reason.  A cfg that
    does not match the template raises ValueError, as in `clean`."""
    return trace_to_dict(clean(t, cfg)) == trace_to_dict(trace)


def trace_to_dict(trace: CleaningTrace) -> dict:
    return {
        "r": trace.r,
        "xi": str(trace.xi),
        "original_n": trace.original_n,
        "priority": list(trace.priority),
        "steps": [
            {
                "op": s.op,
                "removed": list(s.removed),
                "n_before": s.n_before,
                "n_after": s.n_after,
                "witness": s.witness,
                "survivors": list(s.survivors),
            }
            for s in trace.steps
        ],
        "final_vertices": list(trace.final_vertices),
        "stop_reason": trace.stop_reason,
    }


# ---------------------------------------------------------------------------
# Critical sets.  The triangle threshold n^(5/6) uses the ORIGINAL vertex
# count while edge/vertex thresholds n_p^(11/12), n_p^(23/12) use the
# current one; the asymmetry is deliberate and kept verbatim.

class CriticalSets(NamedTuple):
    triangles: tuple
    edges: tuple
    vertices: tuple
    current_n: int
    original_n: int


def critical_sets(t: Template, alive=None, original_n: int = None) -> CriticalSets:
    if original_n is not None and original_n < 1:
        raise ValueError("original_n must be >= 1")
    n = original_n if original_n is not None else t.graph.n
    alive = _alive_list(t, alive)
    n_p = len(alive)
    g = state_graph(t, alive)
    x3 = []
    for tri in triangles(g):
        cnt = count_rainbow_copies_through_triangle(t, tri, sub=g)
        if cnt ** 6 >= n ** 5:
            x3.append(tri)
    edge_hits = {}
    vert_hits = {}
    for a, b, c in x3:
        for e in ((a, b), (a, c), (b, c)):
            edge_hits[e] = edge_hits.get(e, 0) + 1
        for v in (a, b, c):
            vert_hits[v] = vert_hits.get(v, 0) + 1
    x2 = sorted(e for e, cnt in edge_hits.items() if cnt ** 12 >= n_p ** 11)
    x1 = sorted(v for v, cnt in vert_hits.items() if cnt ** 12 >= n_p ** 23)
    return CriticalSets(tuple(x3), tuple(x2), tuple(x1), n_p, n)


# ---------------------------------------------------------------------------
# Supersaturation: clique-count lower bound for graphs far from k-partite.

def supersaturation_interval(n: int, t_close: int, k: int, edge_count: int) -> tuple:
    """Certified enclosure of n^(k-1)/(e^(2k) k!) (e(G) + t - (1-1/k) n^2/2)."""
    if n < 1 or t_close < 1 or k < 1:
        raise ValueError("n, t, k must be >= 1")
    if not 0 <= edge_count <= comb(n, 2):
        raise ValueError(f"edge count must lie in 0..C(n,2) = {comb(n, 2)}")
    bracket = Fraction(edge_count + t_close) - Fraction((k - 1) * n * n, 2 * k)
    lead = Fraction(n ** (k - 1), factorial(k))
    lo_e = EULER_LO ** (2 * k)
    hi_e = EULER_HI ** (2 * k)
    a = lead * bracket / hi_e
    b = lead * bracket / lo_e
    return (a, b) if a <= b else (b, a)


def supersaturation_bound(n: int, t_close: int, k: int, edge_count: int) -> Fraction:
    """Certified lower bound of the supersaturation expression (the number
    of (k+1)-cliques forced when a graph is not t-close to k-partite)."""
    return supersaturation_interval(n, t_close, k, edge_count)[0]


# ---------------------------------------------------------------------------
# List-size histogram.

class ListHistogram(NamedTuple):
    counts: tuple  # counts[s] = number of edges whose list has size s, s = 0..r
    small: int  # m = m_2 + m_3 + m_4 + m_5

    @property
    def total(self) -> int:
        return sum(self.counts)


def list_size_histogram(t: Template) -> ListHistogram:
    counts = [0] * (t.r + 1)
    for i in range(t.graph.edge_count):
        counts[t.list_size(i)] += 1
    small = sum(counts[s] for s in range(2, min(5, t.r) + 1))
    return ListHistogram(tuple(counts), small)
