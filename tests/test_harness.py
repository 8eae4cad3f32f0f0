from types import SimpleNamespace

from semistrict import harness
from semistrict.harness import BudgetExceeded, GenConfig, gen_population, report


def test_gen_population_returns_exactly_count():
    pop = gen_population(GenConfig(seed=0), 7)
    assert len(pop) == 7
    assert len(set(pop)) == 7


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
