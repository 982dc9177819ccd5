"""Runtime substrate: supervised pool execution and chaos injection.

``repro.runtime`` is the layer *underneath* the experiment pipeline — it
knows nothing about graphs, routings or result schemas.  It provides the
crash/recovery discipline both sweep drivers share:

* :class:`Supervisor` / :class:`SupervisorPolicy` — the one path that runs
  shard tasks: it starts, rebuilds and closes its own worker pool from an
  initializer and its arguments (or runs in-process with one worker), and
  adds task timeouts, bounded retry with backoff, dead-worker detection
  with pool rebuild, poisoned task quarantine, and in-process degradation;
* :func:`shutdown_pool` — the supervisor's hardened pool teardown
  (terminate, join with a deadline, escalate to kill);
* :func:`chaos_point` — environment-triggered fault injection used by the
  chaos test-suite and CI to prove the recovery paths work.
"""

from repro.runtime.chaos import (
    CHAOS_ACTIONS,
    CHAOS_ENV,
    CHAOS_SITES,
    ChaosError,
    LEDGER_ENV,
    chaos_point,
)
from repro.runtime.supervisor import (
    FailedTask,
    Supervisor,
    SupervisorPolicy,
    TaskFailedError,
    shutdown_pool,
)

__all__ = [
    "CHAOS_ACTIONS",
    "CHAOS_ENV",
    "CHAOS_SITES",
    "ChaosError",
    "FailedTask",
    "LEDGER_ENV",
    "Supervisor",
    "SupervisorPolicy",
    "TaskFailedError",
    "chaos_point",
    "shutdown_pool",
]
