"""`repro.audit`: continuous verification of executed schedules.

Every execution mode already *claims* correctness through per-mode
invariant flags; this package certifies it with the paper's own theory.
The trace stream (:mod:`repro.obs`) carries data-operation events —
``txn.read`` with its reads-from source version, ``txn.write`` with its
installed chain position — and the auditor folds them back into a
:mod:`repro.model` multiversion schedule plus reads-from relation
(:class:`ScheduleReconstructor`), checks the structural invariants the
engines promise (version-chain integrity, reads-from consistency, the
group-commit recoverability rule), and certifies 1-serializability of
every epoch witness-first (:func:`repro.classes.mvsr.certify_fixed`):
the commit order the run claims is checked in one pass, an order derived
from the serialization graph next, and the polygraph search
(:func:`repro.classes.mvsr.is_mvsr_fixed`) runs, under a budget, only
when both fail.  This is Jepsen/Cobra-style
black-box checking turned inward: the run's *actual produced schedule*
is reconstructed and judged, online (a tracer subscriber) or post-hoc
(an exported JSONL trace), in every mode.

Entry points:

* live — ``auditor = Auditor.attach(tracer)`` before the run, then
  ``auditor.finish()`` after; ``RunConfig(audit=True)`` wires exactly
  this and surfaces the report on :class:`repro.db.RunReport`.  The
  subscriber sees every event, so the tracer may keep any log or none
  (an audit-only run keeps none), and the auditor itself keeps only
  each track's open segment and committed chain.
* post-hoc — :func:`audit_file` replays any ``repro run --trace`` JSONL
  file (the ``repro audit PATH`` CLI), :func:`audit_events` any event
  list.

Deterministic runs audit byte-identically: equal seeds produce equal
traces, hence equal :class:`AuditReport` JSON — the reproducibility
contract extended to the verdict itself.
"""

from repro.audit.auditor import Auditor, audit_events, audit_file
from repro.audit.reconstruct import ScheduleReconstructor, Segment
from repro.audit.report import AuditReport
from repro.audit.violations import Violation, VIOLATION_CODES

__all__ = [
    "Auditor",
    "AuditReport",
    "ScheduleReconstructor",
    "Segment",
    "Violation",
    "VIOLATION_CODES",
    "audit_events",
    "audit_file",
]
