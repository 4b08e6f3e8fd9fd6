"""Multi-tenant assembly service over the checkpointed job runtime.

The layers, bottom-up:

* :mod:`repro.service.queue` — bounded FIFO-per-tenant queues and the
  round-robin fair arbiter (the documented ``T``-grant fairness bound);
* :mod:`repro.service.admission` — per-tenant quotas with typed
  load-shedding reason codes;
* :mod:`repro.service.breaker` — per-tenant circuit breakers with
  round-based (deterministic) cooldowns;
* :mod:`repro.service.service` — :class:`AssemblyService`: submission,
  one-job-per-round scheduling, deadline propagation, crash-resume
  retries and pressure-driven graceful degradation;
* :mod:`repro.service.chaos` — the chaos harness that injects kills,
  timeouts, corrupt inputs and fault storms, then audits the service's
  promises (nothing lost, nothing duplicated, survivors bit-identical,
  fairness bound intact, every non-completion typed).
"""

from repro.service.admission import AdmissionController, TenantQuota
from repro.service.breaker import CircuitBreaker
from repro.service.chaos import ChaosConfig, ChaosReport, run_chaos
from repro.service.queue import BoundedFifo, RoundRobinArbiter
from repro.service.service import (
    AssemblyService,
    JobTicket,
    ServiceConfig,
    ServiceReport,
)

__all__ = [
    "AdmissionController",
    "AssemblyService",
    "BoundedFifo",
    "ChaosConfig",
    "ChaosReport",
    "CircuitBreaker",
    "JobTicket",
    "RoundRobinArbiter",
    "ServiceConfig",
    "ServiceReport",
    "TenantQuota",
    "run_chaos",
]
