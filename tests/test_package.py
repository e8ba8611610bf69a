"""The `rtlab` package namespace: the public names it exports, each resolved
from its defining module on first use, and an `import rtlab` that loads
none of the modules."""

import importlib
import os
import subprocess
import sys

import pytest

import rtlab

EXPORTS = {
    "cleaning": [
        "CleaningConfig", "CleaningTrace", "CriticalSets", "clean", "critical_sets",
        "list_size_histogram", "operation1_step", "operation2_step", "remove_singleton_edges",
        "supersaturation_bound", "supersaturation_interval", "verify_trace", "xi_from_delta",
    ],
    "containers": [
        "RainbowHypergraphStats", "build_rainbow_hypergraph", "codegree",
        "container_hypothesis_check", "delta_tau", "max_codegree", "min_n_for_container",
    ],
    "counting": [
        "BoundsVerdict", "PartitionPolynomial", "SearchReport", "bounds_compare",
        "brute_force_count", "count_colorings", "partition_polynomial", "rho_max_search",
    ],
    "graphs": [
        "ClosenessResult", "Graph", "cliques", "closeness_to_kpartite", "complete_graph",
        "count_cliques", "enumerate_graphs", "extremal_number", "parse_graph6", "turan_graph",
        "write_graph6",
    ],
    "templates": [
        "Template", "complete_template", "count_rainbow_copies",
        "count_rainbow_copies_through_triangle", "from_coloring", "is_subtemplate",
        "lift_template", "list_product", "r_neighborhood", "template_from_json",
        "template_to_json",
    ],
}
NAMES = [name for names in EXPORTS.values() for name in names]
SUBMODULES = ["cache", "cleaning", "cli", "containers", "counting", "errors", "exactmath",
              "graphs", "records", "rows", "templates"]


def test_all_lists_the_exported_names():
    assert len(NAMES) == 50
    assert rtlab.__all__ == NAMES


@pytest.mark.parametrize("module, name", [(m, n) for m, ns in EXPORTS.items() for n in ns])
def test_name_resolves_to_its_defining_module(module, name):
    home = importlib.import_module(f"rtlab.{module}")
    obj = getattr(rtlab, name)
    assert obj is vars(home)[name]
    assert obj.__module__ == home.__name__


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from rtlab import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert set(NAMES) | set(SUBMODULES) <= set(dir(rtlab))


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_attribute_resolves(module):
    assert getattr(rtlab, module) is importlib.import_module(f"rtlab.{module}")


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rtlab.no_such_name
    assert not hasattr(rtlab, "trace_to_dict")  # public in cleaning, not exported


def test_package_import_loads_no_module():
    src = os.path.dirname(os.path.dirname(rtlab.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys, rtlab; "
        "print(sorted(m for m in sys.modules if m.startswith('rtlab.') or m.split('.')[0] == 'numpy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
