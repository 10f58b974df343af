"""`repro.lint`: the AST-based contract linter.

The repo's standing contracts — byte-identical equal-seed reports and
traces, a closed trace-event taxonomy — are enforced *dynamically* by
E15–E18 and the auditor.  This package enforces them *statically*, at
review time, before any run happens: a custom AST pass over the source
tree, structured as a rule registry mirroring the
backend/scenario/suite registries (one ``register_rule`` call per
rule).

Two rule families ship:

* **determinism** (``D101``–``D103``): unordered set iteration in
  deterministic-contract modules, wall-clock reads outside the
  :mod:`repro.obs.clock` seam, unseeded randomness.
* **observability** (``O301``–``O303``): trace emit sites whose event
  names are non-literal, undocumented in :mod:`repro.obs.taxonomy`,
  or carry dynamic payloads.

``repro lint [PATHS]`` is the CLI; CI runs it on the repo itself
(``docs/static-analysis.md`` is the rule catalogue and suppression
policy).  Suppression is per-line — the one waiver mechanism — and must
carry a reason::

    for txn in doomed:  # repro: lint-ignore[D101] order-insensitive sum
"""

from __future__ import annotations

from repro.lint.context import ModuleContext, Pragma
from repro.lint.findings import (
    META_RULES,
    REPORT_VERSION,
    Finding,
    LintReport,
)
from repro.lint.registry import (
    LintRule,
    RuleSpec,
    get_rule,
    register_rule,
    rule_ids,
    rule_specs,
    unregister_rule,
)
from repro.lint.runner import collect_files, lint_paths, lint_sources

# Importing the rule modules registers the built-in rules (one
# register_rule decorator per rule), exactly like backends and
# scenarios register on package import.
from repro.lint import determinism as _determinism  # noqa: F401
from repro.lint import observability as _observability  # noqa: F401

__all__ = [
    "Finding",
    "LintReport",
    "LintRule",
    "META_RULES",
    "ModuleContext",
    "Pragma",
    "REPORT_VERSION",
    "RuleSpec",
    "collect_files",
    "get_rule",
    "lint_paths",
    "lint_sources",
    "register_rule",
    "rule_ids",
    "rule_specs",
    "unregister_rule",
]
