"""E9 — the empirical Figure 1: region populations of random ensembles.

Regenerates the topography as measured data: every region populated at
moderate sizes and the cumulative class sizes ordered
serial <= CSR <= {VSR, MVCSR} <= MVSR <= all, with the multiversion
classes strictly dominating their single-version counterparts.
"""

from repro.analysis.topography import census, cumulative_class_sizes
from repro.classes.hierarchy import REGIONS

SWEEP = [(2, 2), (2, 3), (3, 2)]
SAMPLES = 120


def test_bench_topography_census(table_writer):
    def run_census():
        return {
            cfg: census(SAMPLES, cfg[0], ["x", "y"], cfg[1], seed=7)
            for cfg in SWEEP
        }

    counts_by_cfg = run_census()

    rows = []
    for cfg, counts in counts_by_cfg.items():
        sizes = cumulative_class_sizes(counts)
        assert sizes["serial"] <= sizes["csr"] <= sizes["vsr"]
        assert sizes["csr"] <= sizes["mvcsr"] <= sizes["mvsr"] <= sizes["all"]
        row = {"txns": cfg[0], "steps/txn": cfg[1]}
        row.update({region: counts[region] for region in REGIONS})
        row.update(
            {
                "|csr|": sizes["csr"],
                "|vsr|": sizes["vsr"],
                "|mvcsr|": sizes["mvcsr"],
                "|mvsr|": sizes["mvsr"],
            }
        )
        rows.append(row)
    table_writer("E9_topography", "region populations (empirical Fig. 1)", rows)

    # Every region of Figure 1 is inhabited somewhere in the sweep.
    for region in REGIONS:
        assert any(row[region] > 0 for row in rows), region
    # Multiversion dominance: MVCSR strictly above CSR somewhere.
    assert any(row["|mvcsr|"] > row["|csr|"] for row in rows)
