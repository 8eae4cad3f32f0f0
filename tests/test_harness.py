import hashlib
from types import SimpleNamespace

import pytest

from semistrict import harness
from semistrict.harness import BudgetExceeded, GenConfig, gen_population, report


def test_gen_population_returns_exactly_count():
    pop = gen_population(GenConfig(seed=0), 7)
    assert len(pop) == 7
    assert len(set(pop)) == 7


@pytest.mark.parametrize("seed, digest", [
    (0, "03b4a3c6f3697a1eeb4f2d39e6a35d7bd2acb4d1f7a72eda6d8333b80e96fd67"),
    (7, "513b5f6f5cc5dbfe6e9ef6899ee84f3794bd0d4bdd9b35e84e9a05aace812b0e"),
    (11, "f51c3317bcd32210af40b15e33ed651ef46604dc49006ab1f3dfe6221cf00fd2"),
])
def test_gen_population_is_pinned(seed, digest):
    # the population benchmark workload runs these terms: a change to the
    # generator's output or to its random draws shows here first
    pop = gen_population(GenConfig(seed=seed), 200)
    assert hashlib.sha256(repr(pop).encode()).hexdigest() == digest


def test_report_counts_graphs_over_budget(monkeypatch):
    # stand-in graphs: the second term overruns the budget, the rest have
    # 3, 5 and 10 nodes; the overrun must not enter the max or the mean
    sizes = iter([3, None, 5, 10])

    def fake_graph(t):
        n = next(sizes)
        if n is None:
            raise BudgetExceeded("over budget")
        return SimpleNamespace(nodes=set(range(n)))

    monkeypatch.setattr(harness, "reduction_graph", fake_graph)
    rows = dict(line.split("\t") for line in report(seed=0, count=4).splitlines())
    assert rows["instances"] == "4"
    assert rows["graphs_over_budget"] == "1"
    assert rows["max_graph_nodes"] == "10"
    assert rows["mean_graph_nodes"] == "6.0"
