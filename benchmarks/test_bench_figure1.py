"""E1 — Figure 1: classify the paper's six example schedules.

Regenerates the content of the paper's only figure: one witness schedule
per region of the serializability topography, each verified by the exact
deciders.
"""

from repro.analysis.figure1 import figure1_table


def test_bench_figure1_classification(table_writer):
    rows = figure1_table()
    table_writer("E1_figure1", "Figure 1 example classification", rows)
    assert all(row["match"] for row in rows)
