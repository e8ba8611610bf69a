import itertools

import pytest

from rtlab import templates
from rtlab.graphs import Graph, complete_graph, enumerate_graphs


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def k5():
    return complete_graph(5)


@pytest.fixture(scope="session")
def k6():
    return complete_graph(6)


@pytest.fixture(scope="session")
def classes4():
    return list(enumerate_graphs(4))


@pytest.fixture(scope="session")
def classes5():
    return list(enumerate_graphs(5))


@pytest.fixture(scope="session")
def classes6():
    return list(enumerate_graphs(6))


@pytest.fixture
def kernel_calls(monkeypatch):
    """List of every row passed to the batched kernel
    `count_distinct_choices` by rtlab.templates: one row per K4 counted."""
    calls = []
    kernel = templates.count_distinct_choices

    def counted(rows, *args, **kwargs):
        calls.extend(rows)
        return kernel(rows, *args, **kwargs)

    monkeypatch.setattr(templates, "count_distinct_choices", counted)
    return calls


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def brute_force_is_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    eb = set(b.edges)
    for p in itertools.permutations(range(a.n)):
        if all(tuple(sorted((p[u], p[v]))) in eb for u, v in a.edges):
            return True
    return False
