"""Rainbow hypergraph of a template: degrees, co-degrees, and the exact
evaluation of the container-theorem hypothesis constants.

The hypergraph H of a template has vertex set E(G) x [r]; its hyperedges
are the rainbow K4 copies, so H is 6-uniform.  Two evaluation paths exist
and must agree where they overlap:

  * materialized: explicit hyperedge rows for any lists, made and counted
    in numpy by `rtlab.rows` and bounded by a row cap
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
from fractions import Fraction
from math import comb, factorial, isqrt, perm
from typing import NamedTuple

from .errors import CapExceeded
# materialize_rows and max_codegrees_from_rows are called through the names
# bound here: bench/spans.py traces the functions it finds on this module
from .rows import (
    DEFAULT_MATERIALIZE_CAP,
    _k4_blocks,
    _k4_rows,
    materialize_rows,
    max_codegrees_from_rows,
)

# graphs, templates and exactmath are imported inside the functions that
# call them, so a command that never reaches them does not load them; the
# annotation `Template` is templates.Template, never evaluated.

ELL = 6
# weights of the co-degree functional at uniformity 6: leading 2^14 with
# inner factors 1, 1/2, 1/4, 1/8, 1/16 on Delta_2..Delta_6, i.e. 2^-(j-2)
# on Delta_j.  Saxton-Thomason (Hypergraph containers, Invent. Math. 2015)
# weight Delta_j by 2^-C(j-1,2) instead: 1, 1/2, 1/8, 1/64, 1/1024.  Which
# form the source paper uses is not recorded here.  min_n_for_container is
# the same under both for r in {6, 12, 64}, because the tau condition binds
# there (tests/test_containers.py).
DELTA_LEAD = 2 ** 14
DELTA_WEIGHTS = tuple(Fraction(1, 2 ** i) for i in range(5))
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
    return perm(r, 6) * comb(n, 4)


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
        m3 * perm(r - 2, 4),
        m3 * perm(r - 3, 3),
        perm(r - 4, 2),
        r - 5,
        1,
    )


def structural_max_codegrees(n: int, r: int) -> tuple:
    """Exact Delta_2..Delta_6 for the complete template on K_n, where n-3
    K4s hold each triangle."""
    return _full_list_codegrees(n - 3, r)


def _most_k4s_on_a_triangle(g) -> int:
    """m3: the largest number of K4s through one triangle of g (0 if none)."""
    from .graphs import triangles

    return max(
        ((g.adj[a] & g.adj[b] & g.adj[c]).bit_count() for a, b, c in triangles(g)), default=0
    )


def _pair_set(t: Template, pairs):
    """(sorted distinct pairs, their colour mask) of a co-degree query, or
    None when two pairs share an edge or a colour.  Raises ValueError
    unless there are 2..6 pairs on host edges with colours 1..r."""
    pairs = sorted(set(pairs))
    if not 2 <= len(pairs) <= 6:
        raise ValueError("co-degree sets have 2..6 pairs")
    used = 0
    for e, c in pairs:
        if not 0 <= e < t.graph.edge_count:
            raise ValueError(f"edge id {e} out of range")
        if not 1 <= c <= t.r:
            raise ValueError(f"color {c} outside 1..{t.r}")
        used |= 1 << (c - 1)
    if used.bit_count() < len(pairs) or len({e for e, _ in pairs}) < len(pairs):
        return None
    return pairs, used


def structural_codegree(t: Template, pairs) -> int:
    """Closed-form co-degree for a complete template on K_n."""
    if not is_complete_on_complete_host(t):
        raise ValueError("structural co-degrees need a complete template on K_n")
    checked = _pair_set(t, pairs)
    if checked is None:
        return 0
    pairs = checked[0]
    span = {v for e, _ in pairs for v in t.graph.edges[e]}
    if len(span) > 4:
        return 0
    # two or more distinct edges span 3 vertices (the n-3 K4s on their
    # triangle hold them) or 4 (one K4 does)
    hosts = 1 if len(span) == 4 else t.graph.n - 3
    return hosts * perm(t.r - len(pairs), 6 - len(pairs))


def codegree(t: Template, pairs) -> int:
    """Exact co-degree of a set of (edge_id, color) pairs: the number of
    rainbow copies containing all of them.  Works on any template by
    counting distinct-color completions inside each containing K4."""
    from .graphs import clique_edge_ids
    from .templates import count_distinct_choices

    checked = _pair_set(t, pairs)
    if checked is None:
        return 0
    pairs, used = checked
    color_of = dict(pairs)
    if any(not t.masks[e] >> (c - 1) & 1 for e, c in pairs):
        return 0  # a pair outside its edge's list
    # per K4 holding every pair's edge: the lists of its other edges
    batch = [
        [t.masks[e] for e in eids if e not in color_of]
        for eids in clique_edge_ids(t.graph, 4)
        if color_of.keys() <= set(eids)
    ]
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
    from .templates import count_rainbow_copies, k4_rainbow_copies

    nv = t.graph.edge_count * t.r
    ne = count_rainbow_copies(t)
    avg = Fraction(ELL * ne, nv or 1)  # no edges, so no hyperedges, when nv is 0
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
    return DELTA_LEAD * sum(
        w * d / (stats.average_degree * tau ** i)
        for i, (w, d) in enumerate(zip(DELTA_WEIGHTS, stats.max_codegrees), 1)
    )


class ContainerConstants(NamedTuple):
    """Exact handles on the threshold quantities at (n, r):
    epsilon = n^(-1/3) / ((r-1)(r-2)) and tau = sqrt(8640) * 512 * n^(-1/3),
    stored through their radical-free powers."""

    n: int
    r: int
    epsilon_cubed: Fraction
    tau_sixth: Fraction

    def epsilon_interval(self, digits: int) -> tuple:
        from .exactmath import cbrt_interval, iv_div, iv_exact

        cr = cbrt_interval(Fraction(self.n), digits)
        return iv_div(iv_exact(Fraction(1, (self.r - 1) * (self.r - 2))), cr)

    def tau_interval(self, digits: int) -> tuple:
        from .exactmath import cbrt_interval, iv_div, iv_exact, iv_mul, sqrt_interval

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
    if not any(deltas):
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
    return vacuous, tau_ok, vacuous or _delta_condition_holds(n, r)


def container_hypothesis_check(n: int, r: int) -> HypothesisReport:
    """Evaluate both container hypothesis conditions for the complete
    template on K_n: tau below its threshold (n > N_TAU) and the co-degree
    functional below epsilon / (12 * 6!)."""
    from .exactmath import iv_exact, iv_mul, ln_interval

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
        # c * N * tau * ln(1/eps) * ln(1/tau), where ln(1/x) for x in
        # [lo, hi] lies in [-ln(hi), -ln(lo)]
        ln_inv = [(-ln_interval(hi)[1], -ln_interval(lo)[0]) for lo, hi in (eps, tau)]
        details["conclusion_exponent"] = iv_mul(
            iv_mul(iv_exact(C_ELL_BOUND * r * comb(n, 2)), tau), iv_mul(*ln_inv)
        )
    return HypothesisReport(n, r, vacuous, tau_ok, delta_ok, tau_ok and delta_ok, details)


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
