"""Online transaction-processing engine over the paper's schedulers.

Where :class:`repro.storage.txn_manager.TransactionManager` treats a
rejection the paper's way (the whole schedule dies), this subsystem runs
*open-ended streams*: sessions submit transactions step by step, a
rejected step aborts just that transaction, and the session retries it
with backoff.  Versions live in a multiversion store and a
watermark garbage collector prunes chain prefixes no live reader can
address.  See :mod:`repro.engine.engine` for the execution model
(epochs, abort by retraction, commit dependencies).
"""

from repro.engine.engine import NO_VALUE, OnlineEngine, TxnAttempt, TxnState
from repro.engine.errors import EngineError, TransactionAborted
from repro.engine.factory import SCHEDULER_FACTORIES, scheduler_factory
from repro.engine.gc import GCStats, WatermarkGC
from repro.engine.metrics import EngineMetrics, LatencyStats
from repro.engine.retry import RetryPolicy
from repro.engine.sessions import ConcurrentDriver, Session, SessionState

__all__ = [
    "NO_VALUE",
    "OnlineEngine",
    "TxnAttempt",
    "TxnState",
    "EngineError",
    "TransactionAborted",
    "SCHEDULER_FACTORIES",
    "scheduler_factory",
    "GCStats",
    "WatermarkGC",
    "EngineMetrics",
    "LatencyStats",
    "RetryPolicy",
    "ConcurrentDriver",
    "Session",
    "SessionState",
]
