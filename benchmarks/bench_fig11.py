"""Fig 11 — area comparison with the CPU.

Paper: the HOM64 CGRA is about twice the CPU area; the heterogeneous
configurations reduce the context-memory share and shrink the total
(paper: ~1.5x; our model, anchored on CM = 40% of a PE, lands at
~1.75x).
"""

from repro.eval.experiments import fig11_data
from repro.eval.reporting import render_fig11


def test_fig11_area(benchmark, record_result):
    data = benchmark.pedantic(fig11_data, rounds=1, iterations=1)
    record_result("fig11", render_fig11(data))
    assert 1.7 <= data["HOM64"]["ratio"] <= 2.3
    for name in ("HOM32", "HET1", "HET2"):
        assert data[name]["ratio"] < data["HOM64"]["ratio"]
    # The CM words ordering must show up in silicon area.
    assert data["HET1"]["total"] > data["HET2"]["total"]
