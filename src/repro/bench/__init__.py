"""`repro.bench`: the benchmark observatory.

The perf-measurement subsystem the E-experiments, the CLI
(``repro bench``) and CI share:

* :mod:`~repro.bench.suite` — :class:`BenchCase`/:class:`BenchSuite`
  registry declaring each experiment as a matrix of ``RunConfig``s over
  registered scenarios (built-ins: ``e15``–``e18`` + ``smoke``).
* :mod:`~repro.bench.runner` — one deterministic run per case;
  throughput is committed transactions per logical tick, the only unit
  (seconds are measured outside the program, by ``benchmarks/perf``).
* :mod:`~repro.bench.record` — the versioned :data:`SCHEMA_VERSION`
  JSON record (config echo, guaranteed report schema, latency
  p50/p95/p99, telemetry snapshot, provenance), byte-stable.
* :mod:`~repro.bench.compare` — per-case
  regression/improvement/neutral verdicts against a stored baseline.

``docs/benchmarks.md`` is the user-facing guide.
"""

from __future__ import annotations

from repro.bench.compare import (
    FAILING_VERDICTS,
    compare_documents,
    comparison_ok,
    format_comparison,
)
from repro.bench.record import (
    SCHEMA_VERSION,
    git_sha,
    load_document,
    make_record,
    suite_document,
    write_document,
)
from repro.bench.runner import (
    TICK_UNIT,
    CaseResult,
    committed_throughput,
    logical_ticks,
    run_case,
    run_suite,
)
from repro.bench.suite import (
    BenchCase,
    BenchSuite,
    get_suite,
    register_suite,
    suite_names,
)

__all__ = [
    "BenchCase",
    "BenchSuite",
    "CaseResult",
    "FAILING_VERDICTS",
    "SCHEMA_VERSION",
    "TICK_UNIT",
    "committed_throughput",
    "compare_documents",
    "comparison_ok",
    "format_comparison",
    "get_suite",
    "git_sha",
    "load_document",
    "logical_ticks",
    "make_record",
    "register_suite",
    "run_case",
    "run_suite",
    "suite_document",
    "suite_names",
    "write_document",
]
