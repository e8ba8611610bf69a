"""The result record of each cached subcommand, built from its parameters.

One builder per subcommand, named after it (`container-stats` is
`container_stats`): it takes the parameter dict its record is keyed by,
and only that, with caps and worker counts, which never change a result,
bound as keywords beforehand.  Builders are top-level functions, so
`--workers` can send them to worker processes, and each imports the
modules it runs when it is called.  `cli` imports this module only when
an item misses the cache.
"""

# the annotation `Template` is templates.Template, never evaluated


def _rat(f) -> dict:
    return {"num": str(f.numerator), "den": str(f.denominator)}


def count(p, *, work_cap):
    from .counting import count_colorings
    from .graphs import parse_graph6

    n = count_colorings(parse_graph6(p["graph"]), p["r"], p["k"], work_cap=work_cap)
    return {"op": "count", **p, "count": str(n)}


def poly(p, *, work_cap):
    from .counting import partition_polynomial
    from .graphs import parse_graph6

    g = parse_graph6(p["graph"])
    coeffs = partition_polynomial(g, p["k"], work_cap=work_cap).coeffs
    return {"op": "poly", **p, "edges": g.edge_count, "coefficients": [str(c) for c in coeffs]}


def cliques(p):
    from . import graphs

    g = graphs.parse_graph6(p["graph"])
    payload = {"op": "cliques", "graph": p["graph"], "k": p["k"],
               "count": str(graphs.count_cliques(g, p["k"]))}
    if p["list"]:
        payload["cliques"] = [list(q) for q in graphs.cliques(g, p["k"])]
    return payload


def closeness(p):
    from .graphs import closeness_to_kpartite, parse_graph6

    res = closeness_to_kpartite(parse_graph6(p["graph"]), p["k"], exact_cap=p["exact_cap"])
    return {
        "op": "closeness",
        "graph": p["graph"],
        "k": p["k"],
        "internal_edges": res.internal_edges,
        "partition": list(res.partition),
        # always true since closeness answers exactly or refuses; stored
        # records and pinned digests carry the field
        "exact": True,
    }


def container_stats(p, *, materialize_cap):
    # in the order of use: with no bytecode written, containers (fractions
    # and decimal with it) imported after graphs and templates reads about
    # 0.2 MB lower peak RSS on (K5, r=9) materialized than imported first
    from .graphs import parse_graph6
    from .templates import complete_template
    from .containers import build_rainbow_hypergraph

    t = complete_template(parse_graph6(p["graph"]), p["r"])
    stats, _rows = build_rainbow_hypergraph(t, materialize=p["materialize"], cap=materialize_cap)
    return {
        "op": "container-stats",
        "graph": p["graph"],
        "r": p["r"],
        "vertex_count": stats.vertex_count,
        "edge_count": str(stats.edge_count),
        "average_degree": _rat(stats.average_degree),
        "max_codegrees": [str(d) for d in stats.max_codegrees],
        "materialized": p["materialize"],
    }


def template_stats(p):
    from .cleaning import list_size_histogram
    from .graphs import write_graph6
    from .templates import count_rainbow_copies, template_from_json

    t = template_from_json(p["template"])
    hist = list_size_histogram(t)
    return {
        "op": "template-stats",
        "graph": write_graph6(t.graph),
        "r": t.r,
        "edges": t.graph.edge_count,
        "rainbow_copies": str(count_rainbow_copies(t)),
        "list_histogram": list(hist.counts),
        "small_lists": hist.small,
    }


def search(p, *, workers, work_cap):
    from .counting import rho_max_search
    from .graphs import parse_graph6

    graphs = None if p["input"] is None else [parse_graph6(code) for code in p["input"]]
    report = rho_max_search(
        p["n"], p["r"], p["k"], graphs=graphs, workers=workers, work_cap=work_cap
    )
    return {
        "op": "search",
        "n": report.n,
        "r": report.r,
        "k": report.k,
        "classes": len(report.table),
        "best_graph6": report.best_graph6,
        "best_count": str(report.best_count),
        "turan_exponent": report.turan_exponent,
        "turan_count": str(report.turan_count),
        "best_attains_turan_bound": report.best_attains_turan_bound,
        "table": [[code, str(cnt)] for code, cnt in report.table],
    }


def container_threshold(p):
    from .containers import C_ELL_BOUND, TAU_THRESHOLD, hypothesis_flags, min_n_for_container

    r = p["r"]
    n_min = min_n_for_container(r)
    _, tau_ok, delta_ok = hypothesis_flags(n_min, r)
    return {
        "op": "container-threshold",
        "r": r,
        "min_n": str(n_min),
        "tau_ok_at_min": tau_ok,
        "delta_ok_at_min": delta_ok,
        "passes_below": n_min > 1 and all(hypothesis_flags(n_min - 1, r)[1:]),
        "tau_threshold": _rat(TAU_THRESHOLD),
        "c_ell_bound": str(C_ELL_BOUND),
    }


def _clean_config(t: "Template", p):
    from .cleaning import CleaningConfig

    return CleaningConfig(r=t.r, xi=p["xi"], original_n=t.graph.n, priority=p["priority"])


def clean(p):
    from . import cleaning
    from .templates import template_from_json

    t = template_from_json(p["template"])
    return {"op": "clean", **cleaning.trace_to_dict(cleaning.clean(t, _clean_config(t, p)))}


def critical(p):
    from .cleaning import critical_sets
    from .templates import template_from_json

    cs = critical_sets(template_from_json(p["template"]), original_n=p["original_n"])
    return {
        "op": "critical",
        "triangles": [list(x) for x in cs.triangles],
        "edges": [list(x) for x in cs.edges],
        "vertices": list(cs.vertices),
        "current_n": cs.current_n,
        "original_n": cs.original_n,
    }


def supersat(p):
    from .cleaning import supersaturation_interval

    lo, hi = supersaturation_interval(p["n"], p["t"], p["k"], p["e"])
    return {
        "op": "supersat",
        "n": p["n"],
        "t": p["t"],
        "k": p["k"],
        "edges": p["e"],
        "lower_bound": _rat(lo),
        "interval": {"lo": _rat(lo), "hi": _rat(hi)},
        "positive": lo > 0,
    }
