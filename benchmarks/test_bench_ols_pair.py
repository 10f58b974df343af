"""E5 — the §4 pair: MVCSR is not on-line schedulable.

Reproduces the paper's worked example: both schedules are MVCSR with
unique, conflicting serializations, so the pair is not OLS; every
implemented on-line multiversion scheduler accepts at most one of them.
Times the exact OLS decision on the pair.
"""

from repro.analysis.figure1 import SECTION4_PAIR
from repro.classes.mvcsr import is_mvcsr
from repro.classes.mvsr import all_mvsr_serializations
from repro.ols.decision import is_ols, prefix_signatures
from repro.schedulers.mvcg import EagerMVCGScheduler, MVCGScheduler
from repro.schedulers.mvto import MVTOScheduler


def test_bench_section4_pair(table_writer):
    s, s_prime = SECTION4_PAIR

    verdict = is_ols([s, s_prime])
    assert verdict is False

    lcp = s.common_prefix_length(s_prime)
    rows = [
        {
            "schedule": "s",
            "steps": str(s),
            "mvcsr": is_mvcsr(s),
            "serializations": all_mvsr_serializations(s),
            "lcp_signature": sorted(prefix_signatures(s, lcp)),
        },
        {
            "schedule": "s'",
            "steps": str(s_prime),
            "mvcsr": is_mvcsr(s_prime),
            "serializations": all_mvsr_serializations(s_prime),
            "lcp_signature": sorted(prefix_signatures(s_prime, lcp)),
        },
        {
            "schedule": "{s, s'}",
            "steps": f"common prefix = {s.prefix(lcp)}",
            "mvcsr": "-",
            "serializations": "-",
            "lcp_signature": f"OLS = {verdict}",
        },
    ]
    for name, factory in (
        ("mvto", MVTOScheduler),
        ("mvcg-eager", EagerMVCGScheduler),
        ("mvcg (clairvoyant)", MVCGScheduler),
    ):
        rows.append(
            {
                "schedule": name,
                "steps": "scheduler acceptance",
                "mvcsr": "-",
                "serializations": f"s: {factory().accepts(s)}",
                "lcp_signature": f"s': {factory().accepts(s_prime)}",
            }
        )
    table_writer("E5_section4_pair", "the non-OLS MVCSR pair of §4", rows)
