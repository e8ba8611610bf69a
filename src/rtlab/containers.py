"""Rainbow hypergraph of a template: degrees, co-degrees, and the exact
evaluation of the container-theorem hypothesis constants.

The hypergraph H of a template has vertex set E(G) x [r]; its hyperedges
are the rainbow K4 copies, so H is 6-uniform.  Two evaluation paths exist
and must agree where they overlap:

  * materialized: explicit hyperedge rows for any lists, produced per K4 by
    one vectorised distinct-colour enumerator and bounded by a row cap
    (`--materialize-cap` on the command line);
  * structural: closed-form co-degree case analysis, valid for templates
    whose lists are all full, on any host, and on K_n at any n.

Comparisons involving the container thresholds contain sqrt and cube-root
terms; they are decided without floating point.  The tau condition, cleared
of radicals by raising both sides to the sixth power, is the integer bound
n > N_TAU; the delta condition evaluates the co-degree functional at the
ends of a certified rational interval for tau, refined until the two sides
separate.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from fractions import Fraction
from math import comb, factorial, isqrt
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded
from .exactmath import (
    cbrt_interval,
    falling_factorial,
    iv_div,
    iv_exact,
    iv_mul,
    ln_interval,
    sqrt_interval,
)
from .graphs import clique_edge_ids, triangles
from .templates import Template, count_distinct_choices, count_rainbow_copies, k4_rainbow_copies

ELL = 6
# weights of the co-degree functional at uniformity 6: leading 2^14 with
# inner factors 1, 1/2, 1/4, 1/8, 1/16 on Delta_2..Delta_6, i.e. 2^-(j-2)
# on Delta_j.  Saxton-Thomason (Hypergraph containers, Invent. Math. 2015)
# weight Delta_j by 2^-C(j-1,2) instead: 1, 1/2, 1/8, 1/64, 1/1024.  Which
# form the source paper uses is not recorded here.  min_n_for_container is
# the same under both for r in {6, 12, 64}, because the tau condition binds
# there (tests/test_containers.py).
DELTA_LEAD = 2 ** 14
DELTA_WEIGHTS = (
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 4),
    Fraction(1, 8),
    Fraction(1, 16),
)
TAU_THRESHOLD = Fraction(1, 200 * ELL * factorial(ELL) ** 2)
DELTA_BOUND_DENOM = 12 * factorial(ELL)
C_ELL_BOUND = 1000 * ELL * factorial(ELL) ** 3  # reported constant c(ell)
# tau = TAU_SCALE_SQ^(1/2) * 2^9 * n^(-1/3): keep the radicand exact
TAU_RADICAND = 12 * factorial(ELL)  # 8640
TAU_FACTOR = 2 ** 9
# tau^6 = TAU_FACTOR^6 TAU_RADICAND^3 / n^2 < TAU_THRESHOLD^6 exactly when
# n > N_TAU (TAU_THRESHOLD has numerator 1)
N_TAU = isqrt(TAU_FACTOR ** 6 * TAU_RADICAND ** 3 * TAU_THRESHOLD.denominator ** 6)
INTERVAL_DIGITS = 40  # first precision of the certified intervals

DEFAULT_MATERIALIZE_CAP = 10 ** 7
# Rows are counted in blocks of whole K4s of at least this many rows: a
# block's numpy calls cost about a millisecond in all, a few percent of
# counting this many rows, and its working set stays a few MB.
_BLOCK_ROWS = 2 ** 15


class RainbowHypergraphStats(NamedTuple):
    vertex_count: int
    edge_count: int
    average_degree: Fraction
    max_codegrees: tuple  # (Delta_2, ..., Delta_6) or None if not computed


def is_complete_on_complete_host(t: Template) -> bool:
    """True when the host is K_n and every list is the full color set."""
    g = t.graph
    full = (1 << t.r) - 1
    return g.edge_count == comb(g.n, 2) and all(m == full for m in t.masks)


# ---------------------------------------------------------------------------
# Structural path (complete template on K_n): exact case analysis.

def structural_edge_count(n: int, r: int) -> int:
    return falling_factorial(r, 6) * comb(n, 4)


def structural_average_degree(n: int, r: int) -> Fraction:
    nv = comb(n, 2) * r
    if nv == 0:
        return Fraction(0)
    return Fraction(ELL * structural_edge_count(n, r), nv)


def _full_list_codegrees(m3: int, r: int) -> tuple:
    """Exact Delta_2..Delta_6 when every list is full and m3 is the largest
    number of K4s through one triangle of the host.

    A j-set of (edge, color) pairs with distinct edges and colors lies in
    no hyperedge unless its edges span 3 or 4 vertices.  It lies in one
    hyperedge per choice of 6-j fresh colors on each K4 holding its edges:
    the K4s through the triangle on its 3 vertices, at most m3 of them, or
    the one K4 on its 4 vertices.  Two or three edges can span 3 vertices,
    four or more cannot.
    """
    if m3 < 1 or r < 6:
        return (0, 0, 0, 0, 0)
    return (
        m3 * falling_factorial(r - 2, 4),
        m3 * falling_factorial(r - 3, 3),
        falling_factorial(r - 4, 2),
        r - 5,
        1,
    )


def structural_max_codegrees(n: int, r: int) -> tuple:
    """Exact Delta_2..Delta_6 for the complete template on K_n, where n-3
    K4s hold each triangle."""
    return _full_list_codegrees(n - 3, r)


def _most_k4s_on_a_triangle(g) -> int:
    """m3: the largest number of K4s through one triangle of g (0 if none)."""
    return max(
        (bin(g.adj[a] & g.adj[b] & g.adj[c]).count("1") for a, b, c in triangles(g)), default=0
    )


def structural_codegree(t: Template, pairs) -> int:
    """Closed-form co-degree for a complete template on K_n."""
    if not is_complete_on_complete_host(t):
        raise ValueError("structural co-degrees need a complete template on K_n")
    g, r = t.graph, t.r
    pairs = sorted(set(pairs))
    q = len(pairs)
    edges = [g.edges[e] for e, _ in pairs]
    colors = [c for _, c in pairs]
    for c in colors:
        if not 1 <= c <= r:
            raise ValueError(f"color {c} outside 1..{r}")
    if len({e for e, _ in pairs}) < q or len(set(colors)) < q:
        return 0
    span = set()
    for u, v in edges:
        span.update((u, v))
    if len(span) > 4:
        return 0
    if len(span) == 4:
        hosts = 1
    elif len(span) == 3:
        hosts = g.n - 3
    else:
        return 0  # < 2 distinct edges cannot happen with q >= 2
    return hosts * falling_factorial(r - q, 6 - q)


# ---------------------------------------------------------------------------
# Materialized path.

def _selection_rows(masks) -> np.ndarray:
    """Every distinct-colour selection from six colour lists, as rows of
    0-based colours in list order.  The lists are expanded smallest first
    (ties by index); each partial row carries a uint64 word of the colours
    it has used, and a candidate colour whose bit is already set is dropped.
    Rows come out in lexicographic order of the colours in expansion order."""
    order = sorted(range(6), key=lambda i: (masks[i].bit_count(), i))
    out = np.zeros((1, 6), dtype=np.uint8)
    used = np.zeros(1, dtype=np.uint64)
    for i in order:
        colors = np.array(
            [c for c in range(masks[i].bit_length()) if masks[i] >> c & 1], dtype=np.uint8
        )
        bits = np.left_shift(np.uint64(1), colors)
        parent, pick = np.nonzero((used[:, None] & bits) == 0)
        out = out[parent]
        out[:, i] = colors[pick]
        if i != order[-1]:  # the last list's colours are never tested
            used = used[parent] | bits[pick]
    return out


def _id_dtype(t: Template):
    """The row dtype: the narrowest of uint8, uint16 and int64 that holds
    every id, all below edge_count * r."""
    top = t.graph.edge_count * t.r
    return np.uint8 if top <= 256 else np.uint16 if top <= 65536 else np.int64


def _k4_rows(t: Template):
    """The rows of each host K4 in turn, in `cliques(g, 4)` order."""
    r, dtype = t.r, _id_dtype(t)
    for eids in clique_edge_ids(t.graph, 4):
        offsets = np.array([e * r for e in eids], dtype=dtype)
        yield _selection_rows([t.masks[e] for e in eids]) + offsets


def _k4_blocks(parts):
    """The row arrays of consecutive K4s, joined until a block holds
    _BLOCK_ROWS rows (the last block may hold fewer), so every K4's rows
    lie in one block; a K4 of _BLOCK_ROWS rows or more is its own block,
    not copied."""
    held, count = [], 0
    for rows in parts:
        held.append(rows)
        count += len(rows)
        if count >= _BLOCK_ROWS:
            yield held[0] if len(held) == 1 else np.concatenate(held)
            held, count = [], 0
    if count:
        yield np.concatenate(held)


def materialize_rows(t: Template, cap: int = DEFAULT_MATERIALIZE_CAP) -> np.ndarray:
    """Explicit hyperedges as rows of six hypergraph-vertex ids,
    id = edge_id * r + (color - 1), K4 by K4 in lexicographic vertex order.
    A K4's edge ids ab, ac, ..., cd of its sorted vertices ascend and every
    colour is below r, so each row is increasing as written."""
    total = count_rainbow_copies(t)
    if total > cap:
        raise CapExceeded(
            f"{total} hyperedges exceeds materialization cap {cap}",
            estimate=total,
            cap=cap,
        )
    out = np.empty((total, 6), dtype=_id_dtype(t))
    at = 0
    for rows in _k4_rows(t):
        out[at : at + len(rows)] = rows
        at += len(rows)
    return out


def _subrow_keys(cols, combo, base: int, buf: np.ndarray) -> list:
    """Positional base-`base` keys of the sub-rows at the sorted column
    positions `combo`, as word arrays of `buf`'s dtype, most significant
    first: one word while base**len(combo) fits, else (int64 only) as many
    digits per word as fit.  The first word is written over `buf`."""
    per = 1
    while per < len(combo) and base ** (per + 1) <= 2 ** 63:
        per += 1
    words = []
    for at in range(0, len(combo), per):
        w = np.empty_like(buf) if words else buf
        np.copyto(w, cols[combo[at]], casting="safe")
        for c in combo[at + 1 : at + per]:
            w *= base
            w += cols[c]
        words.append(w)
    return words


def _sorted_runs(words, weights=None):
    """(keys, weights) in key order, and the positions where a run of equal
    keys starts; a one-word key array without weights is sorted in place."""
    if len(words) == 1 and weights is None:
        words[0].sort()
    else:
        order = np.lexsort(words[::-1])
        words = [w[order] for w in words]
        if weights is not None:
            weights = weights[order]
    new = np.zeros(len(words[0]), dtype=bool)
    new[0] = True
    for w in words:
        new[1:] |= w[1:] != w[:-1]
    return words, weights, np.flatnonzero(new)


def _key_counts(words, weights=None):
    """(distinct keys as word arrays, summed weight of each key); without
    weights the sums are the keys' multiplicities."""
    words, weights, starts = _sorted_runs(words, weights)
    if weights is None:
        sums = np.diff(starts, append=len(words[0]))
    else:
        sums = np.add.reduceat(weights, starts)
    return [w[starts] for w in words], sums


def _largest_multiplicity(words) -> int:
    """Largest multiplicity of any key.  The run starts are differenced in
    place into run lengths, and the distinct keys are never gathered."""
    words, _, starts = _sorted_runs(words)
    last = len(words[0]) - starts[-1]
    np.subtract(starts[1:], starts[:-1], out=starts[:-1])
    starts[-1] = last
    return int(starts.max())


# A row's columns are the edges ab, ac, ad, bc, bd, cd of a K4 a < b < c < d.
_K4_EDGES = tuple(itertools.combinations(range(4), 2))
# The column combinations whose edges meet only three of its vertices: the
# 12 pairs of edges sharing a vertex and the 4 triangles.
_ON_THREE_VERTICES = frozenset(
    combo
    for j in (2, 3)
    for combo in itertools.combinations(range(6), j)
    if len({v for i in combo for v in _K4_EDGES[i]}) == 3
)


def max_codegrees_from_rows(rows, base: int) -> tuple:
    """Delta_2..Delta_6 by direct subset counting over explicit rows.

    `rows` holds one hyperedge per row as six increasing ids below `base`,
    id = edge_id * r + (color - 1), as `materialize_rows` writes them: one
    K4's six distinct edges per row.  It is one (m, 6) integer array, or an
    iterator of such arrays, blocks, with all the rows on any one K4 in one
    block.  Rows outside that layout (say, two colours of one edge in a
    row) pass the checks but may get their co-degrees undercounted.

    Each block's columns are copied once, in the narrowest dtype that holds
    its largest id.  Every j-subset of a row sits at some sorted column
    combination and is keyed positionally in base `base`, as an int32
    while base**j fits one, since those sort about twice as fast.  A j-set
    whose edges span four vertices (always so for j >= 4) lies on exactly
    one K4, so every row holding it is in one block, at the same columns:
    its co-degree is the multiplicity of its key at that combination of
    that block.  Two or three edges on three vertices lie on every K4
    through that triangle, at columns that depend on where the fourth
    vertex sorts, so those keys are counted per combination and block and
    the counts are merged once at the end."""
    base = int(base)
    best = [0] * 5  # Delta_2..Delta_6 so far
    shared = ([], [])  # j = 2, 3: (key words, multiplicities) on three vertices
    for block in rows if isinstance(rows, Iterator) else [rows]:
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[1] != 6 or not np.issubdtype(block.dtype, np.integer):
            raise ValueError(
                f"rows must be integers of shape (m, 6), not {block.dtype} {block.shape}"
            )
        if len(block) == 0:
            continue
        top = int(block.max())
        if block.min() < 0 or base <= top or top >= 2 ** 63:
            raise ValueError(f"ids {block.min()}..{top} do not lie in 0..{min(base, 2 ** 63) - 1}")
        if (block[:, 1:] <= block[:, :-1]).any():
            raise ValueError("every row must hold six increasing ids")
        # uint64 would not copy safely into int64 keys; ids past uint16 need those
        narrow = np.min_scalar_type(top) if top < 2 ** 32 else np.int64
        cols = np.ascontiguousarray(block.T, dtype=narrow)
        buf = None
        for j in range(2, 7):
            dtype = np.int32 if base ** j < 2 ** 31 else np.int64
            if buf is None or buf.dtype != dtype:
                buf = None  # one key buffer at a time
                buf = np.empty(len(block), dtype=dtype)
            # each key is used up before the next one is written over the buffer
            for combo in itertools.combinations(range(6), j):
                words = _subrow_keys(cols, combo, base, buf)
                if combo in _ON_THREE_VERTICES:
                    shared[j - 2].append(_key_counts(words))
                else:
                    best[j - 2] = max(best[j - 2], _largest_multiplicity(words))
    for j, parts in enumerate(shared):
        if parts:
            merged = [np.concatenate(w) for w in zip(*(p[0] for p in parts))]
            counts = _key_counts(merged, np.concatenate([p[1] for p in parts]))[1]
            best[j] = max(best[j], int(counts.max()))
    return tuple(best)


def codegree_from_rows(rows: np.ndarray, vids) -> int:
    """Number of explicit rows containing every given hypergraph vertex;
    each id is tested column by column, only on the rows that hold all the
    ids before it."""
    for v in vids:
        hit = rows[:, 0] == v
        for i in range(1, rows.shape[1]):
            hit |= rows[:, i] == v
        rows = rows[hit]
    return len(rows)


def codegree(t: Template, pairs) -> int:
    """Exact co-degree of a set of (edge_id, color) pairs: the number of
    rainbow copies containing all of them.  Works on any template by
    counting distinct-color completions inside each containing K4."""
    pairs = sorted(set(pairs))
    q = len(pairs)
    if not 2 <= q <= 6:
        raise ValueError("co-degree sets have 2..6 pairs")
    g, r = t.graph, t.r
    used = 0
    for e, c in pairs:
        if not 0 <= e < g.edge_count:
            raise ValueError(f"edge id {e} out of range")
        if not 1 <= c <= r:
            raise ValueError(f"color {c} outside 1..{r}")
        used_bit = 1 << (c - 1)
        if used & used_bit:
            return 0  # repeated color
        used |= used_bit
    color_of = dict(pairs)
    if len(color_of) < q:
        return 0  # repeated edge with different colors
    if any(not t.masks[e] >> (c - 1) & 1 for e, c in pairs):
        return 0  # a pair outside its edge's list
    batch = []  # per K4 holding every pair's edge: the lists of its other edges
    for eids in clique_edge_ids(g, 4):
        if color_of.keys() <= set(eids):
            batch.append([t.masks[e] for e in eids if e not in color_of])
    return sum(count_distinct_choices(batch, forbidden=used))


def max_codegree(t: Template, j: int, cap: int = DEFAULT_MATERIALIZE_CAP) -> int:
    """Maximum j-co-degree, by the same structural-or-rows choice as
    build_rainbow_hypergraph (rows are capped)."""
    if not 2 <= j <= 6:
        raise ValueError("j must be in 2..6")
    return build_rainbow_hypergraph(t, cap=cap)[0].max_codegrees[j - 2]


def build_rainbow_hypergraph(
    t: Template,
    materialize: bool = False,
    cap: int = DEFAULT_MATERIALIZE_CAP,
    stats_only: bool = False,
):
    """Stats of the rainbow hypergraph, optionally with explicit rows.

    Returns (stats, rows); rows is None unless materialize is set.
    Co-degrees come from the closed form when every list is full, on any
    host, else from the rows, counted K4 by K4; without materialize the
    rows are generated a block at a time and never all held.  For a
    template with a list short of full whose hyperedge count exceeds the
    cap, co-degrees cannot be computed: stats_only returns them as None,
    otherwise the call refuses.
    """
    nv = t.graph.edge_count * t.r
    ne = count_rainbow_copies(t)
    avg = Fraction(ELL * ne, nv) if nv else Fraction(0)
    rows = None
    if materialize:
        rows = materialize_rows(t, cap)
        # the K4 table is in `cliques` order, the order of the rows
        ends = itertools.accumulate(k4_rainbow_copies(t).values(), initial=0)
        k4s = (rows[a:b] for a, b in itertools.pairwise(ends))
        deltas = max_codegrees_from_rows(_k4_blocks(k4s), nv)
    elif all(m == (1 << t.r) - 1 for m in t.masks):
        deltas = _full_list_codegrees(_most_k4s_on_a_triangle(t.graph), t.r)
    elif ne <= cap:
        deltas = max_codegrees_from_rows(_k4_blocks(_k4_rows(t)), nv)
    elif stats_only:
        deltas = None
    else:
        raise CapExceeded(
            f"{ne} hyperedges exceeds cap {cap}; pass stats_only for partial stats",
            estimate=ne,
            cap=cap,
        )
    return RainbowHypergraphStats(nv, ne, avg, deltas), rows


# ---------------------------------------------------------------------------
# The co-degree functional and the hypothesis checks.

def delta_tau(stats: RainbowHypergraphStats, tau: Fraction) -> Fraction:
    """Exact evaluation of the weighted co-degree functional at rational tau."""
    tau = Fraction(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    if stats.average_degree == 0:
        raise ValueError("undefined average degree: hypergraph has no edges")
    if stats.max_codegrees is None:
        raise ValueError("co-degrees were not computed for these stats")
    total = Fraction(0)
    for i, (w, d) in enumerate(zip(DELTA_WEIGHTS, stats.max_codegrees)):
        total += w * d / (stats.average_degree * tau ** (i + 1))
    return DELTA_LEAD * total


class ContainerConstants(NamedTuple):
    """Exact handles on the threshold quantities at (n, r):
    epsilon = n^(-1/3) / ((r-1)(r-2)) and tau = sqrt(8640) * 512 * n^(-1/3),
    stored through their radical-free powers."""

    n: int
    r: int
    epsilon_cubed: Fraction
    tau_sixth: Fraction

    def epsilon_interval(self, digits: int) -> tuple:
        cr = cbrt_interval(Fraction(self.n), digits)
        return iv_div(iv_exact(Fraction(1, (self.r - 1) * (self.r - 2))), cr)

    def tau_interval(self, digits: int) -> tuple:
        s = sqrt_interval(Fraction(TAU_RADICAND), digits)
        cr = cbrt_interval(Fraction(self.n), digits)
        return iv_div(iv_mul(iv_exact(TAU_FACTOR), s), cr)


def container_constants(n: int, r: int) -> ContainerConstants:
    if n < 1:
        raise ValueError("n must be >= 1")
    if r < 3:
        raise ValueError("epsilon needs r >= 3")
    eps3 = Fraction(1, n * ((r - 1) * (r - 2)) ** 3)
    tau6 = Fraction(TAU_FACTOR ** 6 * TAU_RADICAND ** 3, n ** 2)
    return ContainerConstants(n, r, eps3, tau6)


class HypothesisReport(NamedTuple):
    n: int
    r: int
    vacuous: bool
    tau_ok: bool
    delta_ok: bool
    passes: bool
    details: dict


def _delta_condition_holds(n: int, r: int) -> bool:
    """Delta(H, tau) <= epsilon / (12 * 6!) for the complete template on
    K_n, with structural co-degrees.  The functional falls as tau grows, so
    it is evaluated at both ends of tau's certified interval and compared
    with the ends of epsilon's, refining until the two sides separate."""
    deltas = structural_max_codegrees(n, r)
    if all(d == 0 for d in deltas):
        return True  # empty hypergraph: the functional is identically zero
    stats = RainbowHypergraphStats(
        comb(n, 2) * r, structural_edge_count(n, r), structural_average_degree(n, r), deltas
    )
    cc = container_constants(n, r)
    d = INTERVAL_DIGITS
    while d <= 1400:
        tau_lo, tau_hi = cc.tau_interval(d)
        eps_lo, eps_hi = cc.epsilon_interval(d)
        if delta_tau(stats, tau_lo) <= eps_lo / DELTA_BOUND_DENOM:
            return True
        if delta_tau(stats, tau_hi) > eps_hi / DELTA_BOUND_DENOM:
            return False
        d *= 2
    raise RuntimeError(f"delta condition undecided at n={n}, r={r}")


def hypothesis_flags(n: int, r: int) -> tuple:
    """(vacuous, tau_ok, delta_ok) without any report plumbing."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vacuous = r < 6 or n < 4  # no rainbow copies, empty hypergraph
    tau_ok = n > N_TAU
    if vacuous:
        return vacuous, tau_ok, True
    return vacuous, tau_ok, _delta_condition_holds(n, r)


def container_hypothesis_check(n: int, r: int) -> HypothesisReport:
    """Evaluate both container hypothesis conditions for the complete
    template on K_n: tau below its threshold (n > N_TAU) and the co-degree
    functional below epsilon / (12 * 6!)."""
    cc = container_constants(n, r)
    vacuous, tau_ok, delta_ok = hypothesis_flags(n, r)
    eps = cc.epsilon_interval(INTERVAL_DIGITS)
    tau = cc.tau_interval(INTERVAL_DIGITS)
    details = {
        "ell": ELL,
        "epsilon_cubed": cc.epsilon_cubed,
        "tau_sixth": cc.tau_sixth,
        "tau_threshold": TAU_THRESHOLD,
        "epsilon_interval": eps,
        "tau_interval": tau,
        "epsilon_below_half": 8 * cc.epsilon_cubed < 1,
        "delta_bound_denominator": DELTA_BOUND_DENOM,
        "codegrees": structural_max_codegrees(n, r),
        "average_degree": structural_average_degree(n, r),
        "hypergraph_edges": structural_edge_count(n, r),
        "c_ell_bound": C_ELL_BOUND,
    }
    if tau[1] < 1 and eps[1] < 1:
        # reported size of the container-family exponent:
        # c * N * tau * ln(1/eps) * ln(1/tau)
        nv = r * comb(n, 2)
        ln_inv_eps = _ln_inverse_interval(eps)
        ln_inv_tau = _ln_inverse_interval(tau)
        expo = iv_mul(
            iv_mul(iv_exact(C_ELL_BOUND * nv), tau), iv_mul(ln_inv_eps, ln_inv_tau)
        )
        details["conclusion_exponent"] = expo
    return HypothesisReport(
        n=n,
        r=r,
        vacuous=vacuous,
        tau_ok=tau_ok,
        delta_ok=delta_ok,
        passes=tau_ok and delta_ok,
        details=details,
    )


def _ln_inverse_interval(x: tuple) -> tuple:
    lo, hi = ln_interval(x[0]), ln_interval(x[1])
    return -hi[1], -lo[0]


def min_n_for_container(r: int) -> int:
    """Least n at which both hypothesis conditions hold.  The tau condition
    holds exactly for n > N_TAU, so the delta condition (monotone in n) is
    checked at N_TAU + 1 and searched above it, by doubling and bisection,
    only if it fails there."""
    if r < 6:
        raise ValueError("r must be >= 6 (smaller r has an empty hypergraph)")
    lo = N_TAU  # tau fails at every n <= lo
    hi, step = lo + 1, 1
    while not _delta_condition_holds(hi, r):
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _delta_condition_holds(mid, r):
            hi = mid
        else:
            lo = mid
    return hi
