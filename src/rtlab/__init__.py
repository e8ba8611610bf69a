"""rtlab: an exact-computation laboratory for rainbow-K4-free edge
colorings of small graphs, their color-list templates, the rainbow
hypergraph co-degree analysis, and the graph cleaning procedure.

Importing the package loads none of its modules: each public name, and
each submodule, is imported on first use (PEP 562)."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cleaning": (
        "CleaningConfig",
        "CleaningTrace",
        "CriticalSets",
        "clean",
        "critical_sets",
        "list_size_histogram",
        "operation1_step",
        "operation2_step",
        "remove_singleton_edges",
        "supersaturation_bound",
        "supersaturation_interval",
        "verify_trace",
        "xi_from_delta",
    ),
    "containers": (
        "RainbowHypergraphStats",
        "build_rainbow_hypergraph",
        "codegree",
        "container_hypothesis_check",
        "delta_tau",
        "max_codegree",
        "min_n_for_container",
    ),
    "counting": (
        "BoundsVerdict",
        "PartitionPolynomial",
        "SearchReport",
        "bounds_compare",
        "brute_force_count",
        "count_colorings",
        "partition_polynomial",
        "rho_max_search",
    ),
    "graphs": (
        "ClosenessResult",
        "Graph",
        "cliques",
        "closeness_to_kpartite",
        "complete_graph",
        "count_cliques",
        "enumerate_graphs",
        "extremal_number",
        "parse_graph6",
        "turan_graph",
        "write_graph6",
    ),
    "templates": (
        "Template",
        "complete_template",
        "count_rainbow_copies",
        "count_rainbow_copies_through_triangle",
        "from_coloring",
        "is_subtemplate",
        "lift_template",
        "list_product",
        "r_neighborhood",
        "template_from_json",
        "template_to_json",
    ),
}

# name -> the submodule that defines it; a submodule maps to itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_HOME.update(
    (module, module)
    for module in (*_EXPORTS, "cache", "cli", "errors", "exactmath", "records", "rows")
)

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{home}")
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
