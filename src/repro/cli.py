"""Command-line interface.

::

    python -m repro classify "RA(x) WA(x) RB(x) RB(y) WB(y) RA(y) WA(y)"
    python -m repro ols "R1(x) W1(x) R2(x)" "R1(x) R2(x) W1(x)"
    python -m repro schedulers "W1(x) R2(x) W2(y) R1(y)"
    python -m repro figure1
    python -m repro census --samples 200 --txns 3 --steps 2
    python -m repro sat "a|b & ~a|~b"
    python -m repro run --mode serial --scenario bank --txns 200
    python -m repro run --mode parallel --workers 4 --deterministic
    python -m repro run --mode planner --scenario read-mostly --seed 7
    python -m repro run --mode parallel --trace trace.jsonl --audit
    python -m repro audit trace.jsonl
    python -m repro run --list-modes
    python -m repro run --list-scenarios
    python -m repro bench list
    python -m repro bench run --suite e17 --json out.json
    python -m repro bench compare baseline.json out.json --max-regress 0.1

``run`` is the single execution entry point, built on the typed
Database API (:mod:`repro.db`): ``--mode`` picks the execution backend,
``--scenario`` the workload, and every option is validated against the
backend's declared contract — an option the mode cannot honor is a
usage error, never silently dropped.

Output goes to stdout; exit status is 0 on success, 1 on a negative
decision (not in class / not OLS / unsatisfiable / invariant violated /
engine fault), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from repro.analysis.figure1 import figure1_table
from repro.analysis.topography import census, cumulative_class_sizes
from repro.classes.hierarchy import REGIONS, classify, membership_profile
from repro.db import MODE_OPTIONS, Database, RunConfig, get_backend
from repro.engine.factory import SCHEDULER_FACTORIES
from repro.model.parsing import format_schedule_by_transaction, parse_schedule
from repro.ols.decision import is_ols
from repro.sat.cnf import CNF, Lit
from repro.sat.solver import solve
from repro.workloads.registry import scenario_names, scenario_spec


def _fraction(text: str) -> float:
    """argparse type: a float in [0, 1] (rejected at parse time)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be in [0, 1], got {value}"
        )
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (rejected at parse time)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0 (0 = feature disabled)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _writable_path(text: str) -> str:
    """argparse type: a path whose file can be created/overwritten.

    Checked at parse time (like every other option here) so a typo'd
    trace directory fails with a one-line usage error before the run
    spends a second computing a trace it cannot write.
    """
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(
            f"directory does not exist: {directory!r}"
        )
    target = text if os.path.exists(text) else directory
    if not os.access(target, os.W_OK):
        raise argparse.ArgumentTypeError(f"not writable: {text!r}")
    return text


def _readable_path(text: str) -> str:
    """argparse type: an existing readable file.

    The parse-time twin of :func:`_writable_path`, shared by every
    subcommand that reads a file (``trace summarize``, ``audit``) so a
    typo'd path fails with the same one-line usage error everywhere.
    """
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"no such file: {text!r}")
    if not os.access(text, os.R_OK):
        raise argparse.ArgumentTypeError(f"not readable: {text!r}")
    return text


def _parse_cnf(text: str) -> CNF:
    """Parse ``a|b & ~a|~b`` style CNF text."""
    cnf = CNF()
    for clause_text in text.split("&"):
        clause: list[Lit] = []
        for lit_text in clause_text.split("|"):
            lit_text = lit_text.strip()
            if not lit_text:
                continue
            if lit_text.startswith("~") or lit_text.startswith("!"):
                clause.append((lit_text[1:].strip(), False))
            else:
                clause.append((lit_text, True))
        if clause:
            cnf.clauses.append(tuple(clause))
    return cnf


def cmd_classify(args: argparse.Namespace) -> int:
    schedule = parse_schedule(args.schedule)
    print(format_schedule_by_transaction(schedule))
    print()
    profile = membership_profile(schedule)
    for name, member in profile.as_dict().items():
        print(f"  {name:>6}: {member}")
    region = classify(schedule)
    print(f"\nFigure 1 region: {region}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    schedule = parse_schedule(args.schedule)
    profile = membership_profile(schedule).as_dict()
    if args.cls not in profile:
        print(f"unknown class {args.cls!r}; one of {sorted(profile)}")
        return 2
    verdict = profile[args.cls]
    print(f"{args.cls}: {verdict}")
    return 0 if verdict else 1


def cmd_ols(args: argparse.Namespace) -> int:
    schedules = [parse_schedule(text) for text in args.schedules]
    verdict = is_ols(schedules)
    print(f"OLS({len(schedules)} schedules): {verdict}")
    return 0 if verdict else 1


def cmd_schedulers(args: argparse.Namespace) -> int:
    from repro.schedulers.maximal import MaximalOracleScheduler
    from repro.schedulers.mv2pl import TwoVersionTwoPL
    from repro.schedulers.mvcg import EagerMVCGScheduler, MVCGScheduler
    from repro.schedulers.mvto import MVTOScheduler
    from repro.schedulers.polygraph_sched import PolygraphScheduler
    from repro.schedulers.sgt import SGTScheduler
    from repro.schedulers.snapshot import SnapshotIsolationScheduler
    from repro.schedulers.twopl import TwoPhaseLocking

    schedule = parse_schedule(args.schedule)
    lengths = {
        t: len(schedule.projection(t)) for t in schedule.txn_ids
    }
    schedulers = [
        TwoPhaseLocking(lengths),
        SGTScheduler(),
        TwoVersionTwoPL(lengths),
        MVTOScheduler(),
        EagerMVCGScheduler(),
        PolygraphScheduler(),
        MVCGScheduler(),
        MaximalOracleScheduler(schedule.transaction_system()),
        SnapshotIsolationScheduler(lengths),
    ]
    for scheduler in schedulers:
        accepted = scheduler.accepts(schedule)
        n = scheduler.accepted_prefix_length(schedule)
        print(
            f"  {scheduler.name:>10}: "
            f"{'accepts' if accepted else f'rejects at step {n}'}"
        )
    return 0


def cmd_figure1(_args: argparse.Namespace) -> int:
    for row in figure1_table():
        status = "ok" if row["match"] else "MISMATCH"
        print(f"[{row['example']}] {row['schedule']}")
        print(f"    claimed {row['claimed']!r}, measured "
              f"{row['measured']!r} ({status})")
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    counts = census(
        args.samples,
        args.txns,
        [f"e{k}" for k in range(args.entities)],
        args.steps,
        seed=args.seed,
    )
    total = sum(counts.values())
    for region in REGIONS:
        n = counts[region]
        bar = "#" * round(40 * n / max(1, total))
        print(f"  {region:>15}: {n:5d}  {bar}")
    sizes = cumulative_class_sizes(counts)
    print(
        f"\n  serial({sizes['serial']}) <= csr({sizes['csr']}) <= "
        f"vsr({sizes['vsr']}) <= mvsr({sizes['mvsr']}) <= all({sizes['all']})"
    )
    print(f"  csr({sizes['csr']}) <= mvcsr({sizes['mvcsr']})")
    return 0


def cmd_sat(args: argparse.Namespace) -> int:
    formula = _parse_cnf(args.formula)
    model = solve(formula)
    if model is None:
        print("UNSAT")
        return 1
    print("SAT")
    for var in sorted(formula.variables, key=repr):
        print(f"  {var} = {model[var]}")
    return 0


# -- the unified execution entry point ------------------------------------

#: the ``repro run`` workload flags, in ``--help`` order.
_WORKLOAD_FLAGS = (
    "entities", "accounts_per_shard", "hot_fraction", "cross_fraction",
    "read_fraction", "abort_fraction", "audit_every",
)

#: the one flag not named after the parameter it sets.
_FLAG_ALIASES = {"entities": ("n_accounts", "n_warehouses")}

#: which workload flag maps to which scenario parameter, per scenario —
#: derived from the registry: a flag applies where its name (or alias)
#: is a parameter the scenario declares.  Flag/scenario mismatches are
#: usage errors, never silent drops (the CLI rendering of the RunConfig
#: contract).
_SCENARIO_FLAG_PARAMS: dict[str, dict[str, str]] = {
    flag: {
        name: param
        for name in scenario_names()
        for param in _FLAG_ALIASES.get(flag, (flag,))
        if param in scenario_spec(name).params
    }
    for flag in _WORKLOAD_FLAGS
}


def _scenario_flags(scenario: str) -> list[str]:
    """The ``repro run`` workload flags the named scenario accepts."""
    return sorted(
        f"--{flag.replace('_', '-')}"
        for flag, per_scenario in _SCENARIO_FLAG_PARAMS.items()
        if scenario in per_scenario
    )


def _translate_scenario_flags(args: argparse.Namespace) -> dict:
    """Map the ``repro run`` workload flags onto scenario parameters,
    rejecting flags the chosen scenario has no use for.

    The rejection names both sides of the mismatch — the scenarios the
    flag would apply to *and* the flags the chosen scenario accepts —
    mirroring the ``RunConfig`` rule that a rejected option always lists
    the applicable ones.
    """
    params: dict = {}
    for flag, per_scenario in _SCENARIO_FLAG_PARAMS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if args.scenario not in per_scenario:
            accepted = _scenario_flags(args.scenario)
            accepts = (
                f"accepts {', '.join(accepted)}"
                if accepted
                else "accepts no workload flags"
            )
            raise ValueError(
                f"--{flag.replace('_', '-')} does not apply to scenario "
                f"{args.scenario!r} (applies to scenarios "
                f"{sorted(per_scenario)}; scenario {args.scenario!r} "
                f"{accepts})"
            )
        params[per_scenario[args.scenario]] = value
    return params


def cmd_run(args: argparse.Namespace) -> int:
    if args.list_modes:
        for name in Database.backends():
            print(f"  {name:>10}: {get_backend(name).description}")
        return 0
    if args.list_scenarios:
        for name in Database.scenarios():
            print(f"  {name:>14}: {scenario_spec(name).description}")
        return 0
    params = _translate_scenario_flags(args)
    # Every mode-option flag's ``dest`` is its RunConfig field name.
    config = RunConfig(
        mode=args.mode,
        seed=args.seed,
        gc=not args.no_gc,
        **{
            name: getattr(args, name)
            for name in MODE_OPTIONS
            if getattr(args, name) is not None
        },
    )
    if "n_shards" in scenario_spec(args.scenario).params:
        # Bucketed per shard: the shard count follows the worker count.
        params["n_shards"] = config.workers
    report = Database().run(
        args.scenario, config, txns=args.txns, **params
    )
    if args.json:
        # The JSON document carries the telemetry view next to the
        # guaranteed schema — counters/gauges/histograms without
        # touching the frozen report keys.
        doc = report.as_dict()
        doc["telemetry"] = report.telemetry()
        if report.audit is not None:
            doc["audit"] = report.audit.as_dict()
        print(json.dumps(doc))
    else:
        print(report.report())
    audit_ok = report.audit is None or report.audit.ok
    return 0 if report.invariant_ok and audit_ok else 1


# -- the benchmark observatory (repro.bench) -------------------------------


def cmd_bench_list(args: argparse.Namespace) -> int:
    from repro.bench import get_suite, suite_names

    if args.suite is not None:
        suite = get_suite(args.suite)
        print(f"{suite.name}: {suite.description}")
        for case in suite.cases:
            print(
                f"  {case.case_id:<28} {case.scenario} x{case.txns}"
            )
        return 0
    for name in suite_names():
        suite = get_suite(name)
        print(
            f"  {name:>6}: {len(suite.cases)} cases — "
            f"{suite.description}"
        )
    return 0


def cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.bench import (
        TICK_UNIT,
        get_suite,
        run_suite,
        suite_document,
        write_document,
    )

    suite = get_suite(args.suite)

    def progress(result) -> None:
        print(
            f"  {result.case.case_id:<28} "
            f"{result.throughput:g} {TICK_UNIT}"
        )

    results = run_suite(suite, txns=args.txns, progress=progress)
    path = args.json or f"BENCH_{suite.name}.json"
    write_document(suite_document(suite.name, results), path)
    print(f"{len(results)} record(s) -> {path}")
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench import (
        compare_documents,
        comparison_ok,
        format_comparison,
        load_document,
    )

    baseline = load_document(args.baseline)
    candidate = load_document(args.candidate)
    rows = compare_documents(
        baseline, candidate, max_regress=args.max_regress
    )
    print(format_comparison(rows, max_regress=args.max_regress))
    return 0 if comparison_ok(rows) else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import format_summary, read_jsonl, summarize

    meta, events = read_jsonl(args.path)
    summary = summarize(events, dropped=meta.get("dropped", 0))
    print(format_summary(summary))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.audit import audit_file

    report = audit_file(args.path)
    print(report.format())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.as_json() + "\n")
    return 0 if report.ok else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import lint_paths

    # repeatable flags also accept comma-separated ids.
    select = [r for text in args.select for r in text.split(",") if r]
    ignore = [r for text in args.ignore for r in text.split(",") if r]
    report = lint_paths(
        args.paths, select=select or None, ignore=ignore or None
    )
    print(report.format())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.as_json() + "\n")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Multiversion concurrency control toolbox "
            "(Hadzilacos & Papadimitriou, PODS 1985)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full class membership profile")
    p.add_argument("schedule")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check", help="membership in one class")
    p.add_argument("cls", choices=[
        "serial", "csr", "vsr", "fsr", "mvsr", "mvcsr", "dmvsr",
    ])
    p.add_argument("schedule")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ols", help="on-line schedulability of a set")
    p.add_argument("schedules", nargs="+")
    p.set_defaults(func=cmd_ols)

    p = sub.add_parser(
        "schedulers", help="which schedulers accept a schedule"
    )
    p.add_argument("schedule")
    p.set_defaults(func=cmd_schedulers)

    p = sub.add_parser("figure1", help="verify the paper's Figure 1")
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("census", help="empirical topography census")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--txns", type=int, default=3)
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--entities", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("sat", help="solve CNF text like 'a|b & ~a|~b'")
    p.add_argument("formula")
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser(
        "run",
        help="run a workload scenario under any execution mode "
             "(the Database API)",
    )
    p.add_argument(
        "--mode", choices=Database.backends(), default="serial",
        help="execution backend (see --list-modes)",
    )
    p.add_argument(
        "--scenario", choices=scenario_names(), default="bank",
        help="workload scenario (see --list-scenarios)",
    )
    p.add_argument("--list-modes", action="store_true",
                   help="list registered execution modes and exit")
    p.add_argument("--list-scenarios", action="store_true",
                   help="list registered scenarios and exit")
    p.add_argument("--txns", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    # Mode options (``dest`` is the RunConfig field): None means "not
    # given"; RunConfig resolves the backend's default, and rejects
    # flags the mode cannot honor.
    p.add_argument(
        "--scheduler", choices=sorted(SCHEDULER_FACTORIES), default=None,
        help="scheduler for the online modes (default: mvto)",
    )
    p.add_argument("--workers", type=_positive_int, default=None)
    p.add_argument("--batch-size", type=_positive_int, default=None)
    p.add_argument("--deterministic", action="store_true", default=None,
                   help="tick trace clock, no txn/s figure")
    p.add_argument("--max-retries", type=_positive_int, default=None,
                   dest="retry", metavar="MAX_RETRIES")
    p.add_argument("--no-gc", action="store_true")
    p.add_argument("--gc-every", type=_nonnegative_int, default=None,
                   help="collect every N commits (online modes)")
    p.add_argument("--epoch-steps", type=_positive_int, default=None,
                   dest="epoch_max_steps", metavar="EPOCH_STEPS")
    p.add_argument("--lookahead", type=_positive_int, default=None,
                   help="pipelined mode: accepted and echoed, selects "
                        "nothing (default 1)")
    # Scenario options (validated against the chosen scenario).
    p.add_argument("--entities", type=_positive_int, default=None,
                   help="bank accounts / inventory warehouses")
    p.add_argument("--accounts-per-shard", type=_positive_int, default=None)
    p.add_argument("--hot-fraction", type=_fraction, default=None)
    p.add_argument("--cross-fraction", type=_fraction, default=None,
                   help="sharded-bank: cross-shard transfer fraction")
    p.add_argument("--read-fraction", type=_fraction, default=None,
                   help="read-mostly: read-only transaction fraction")
    p.add_argument("--abort-fraction", type=_fraction, default=None,
                   help="abort-heavy: seeded logic-abort fraction")
    p.add_argument("--audit-every", type=_nonnegative_int, default=None,
                   help="every k-th transaction is a read-only audit")
    p.add_argument("--json", action="store_true",
                   help="print the RunReport dict as JSON")
    p.add_argument("--trace", type=_writable_path, default=None,
                   metavar="PATH",
                   help="write a JSONL execution trace to PATH")
    p.add_argument("--audit", action="store_true", default=None,
                   help="continuously verify the run: reconstruct the "
                        "schedule from the trace and certify "
                        "1-serializability (nonzero exit on violation)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "bench",
        help="benchmark observatory: run suites, record, gate "
             "regressions (repro.bench)",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    p = bench_sub.add_parser(
        "list", help="registered suites (or one suite's cases)"
    )
    p.add_argument("--suite", default=None,
                   help="show this suite's cases instead")
    p.set_defaults(func=cmd_bench_list)
    p = bench_sub.add_parser(
        "run",
        help="measure a suite and write its BENCH_<suite>.json record",
    )
    p.add_argument("--suite", required=True,
                   help="suite name (see 'repro bench list')")
    p.add_argument("--txns", type=_positive_int, default=None,
                   help="override every case's stream length "
                        "(smoke sizes)")
    p.add_argument("--json", type=_writable_path, default=None,
                   metavar="PATH",
                   help="record path (default: BENCH_<suite>.json)")
    p.set_defaults(func=cmd_bench_run)
    p = bench_sub.add_parser(
        "compare",
        help="gate a candidate record against a baseline "
             "(nonzero exit on regression)",
    )
    p.add_argument("baseline", help="baseline BENCH json")
    p.add_argument("candidate", help="candidate BENCH json")
    p.add_argument("--max-regress", type=_fraction, default=0.1,
                   metavar="FRAC",
                   help="allowed per-case throughput drop "
                        "(fraction, default 0.1)")
    p.set_defaults(func=cmd_bench_compare)

    p = sub.add_parser(
        "trace",
        help="inspect a JSONL execution trace written by run --trace",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    p = trace_sub.add_parser(
        "summarize",
        help="per-phase time breakdown and critical-path stats",
    )
    p.add_argument("path", type=_readable_path,
                   help="trace file written by run --trace")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "audit",
        help="replay a JSONL execution trace through the continuous-"
             "verification auditor (repro.audit)",
    )
    p.add_argument("path", type=_readable_path,
                   help="trace file written by run --trace")
    p.add_argument("--json", type=_writable_path, default=None,
                   metavar="PATH",
                   help="also write the AuditReport as JSON to PATH")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "lint",
        help="run the AST contract linter (determinism, lock "
             "discipline, trace taxonomy) over source paths",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--select", action="append", default=[],
                   metavar="RULE-ID",
                   help="run only these rules (repeatable or "
                        "comma-separated)")
    p.add_argument("--ignore", action="append", default=[],
                   metavar="RULE-ID",
                   help="skip these rules (repeatable or comma-separated)")
    p.add_argument("--json", type=_writable_path, default=None,
                   metavar="PATH",
                   help="also write the LintReport as JSON to PATH")
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    from repro.engine.errors import EngineError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineError as exc:
        # An engine invariant broke mid-run: report the fault cleanly
        # (one line, non-zero exit) instead of dumping a traceback.
        print(f"engine fault: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
