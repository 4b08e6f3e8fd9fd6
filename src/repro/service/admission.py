"""Admission control: per-tenant quotas and typed load shedding.

Admission is the service's first line of graceful degradation: a
submission that would overrun a bound is *shed* with a typed
:class:`~repro.errors.AdmissionError` carrying a stable machine-readable
``reason`` code — never silently dropped, never allowed to wedge the
deployment.  Reason codes:

==================  =====================================================
tenant-unknown      tenant id is empty / malformed
duplicate-job       a job with this name already exists for the tenant
input-too-large     input exceeds the tenant's ``max_input_bytes``
tenant-queue-full   the tenant's own bounded FIFO is at capacity
service-queue-full  the service-wide queued-job bound is reached
breaker-open        the tenant's circuit breaker is open
                    (:class:`~repro.errors.CircuitOpenError`)
==================  =====================================================

The quota model is two numbers per tenant (defaults apply when a
tenant has no explicit quota): how many jobs it may have queued and
how large one job's input may be.  Both shed at submit; the scheduler
runs one job at a time, so there is no in-flight cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AdmissionError

__all__ = ["TenantQuota", "AdmissionController"]


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource bounds.

    Attributes:
        max_queued: jobs the tenant may hold in its FIFO.
        max_input_bytes: largest admissible input payload (``None``
            disables the size check).
    """

    max_queued: int = 8
    max_input_bytes: "int | None" = None

    def __post_init__(self) -> None:
        if self.max_queued < 1:
            raise ValueError("max_queued must be >= 1")
        if self.max_input_bytes is not None and self.max_input_bytes < 1:
            raise ValueError("max_input_bytes must be >= 1 or None")


class AdmissionController:
    """Decides whether a submission is admitted, and why not if not."""

    def __init__(
        self,
        default_quota: "TenantQuota | None" = None,
        quotas: "dict[str, TenantQuota] | None" = None,
        max_total_queued: int = 64,
    ) -> None:
        if max_total_queued < 1:
            raise ValueError("max_total_queued must be >= 1")
        self.default_quota = default_quota or TenantQuota()
        self.quotas = dict(quotas or {})
        self.max_total_queued = max_total_queued

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def check(
        self,
        tenant: str,
        *,
        input_bytes: int,
        tenant_queued: int,
        total_queued: int,
        known_names: "set[str] | frozenset[str]" = frozenset(),
        name: "str | None" = None,
    ) -> TenantQuota:
        """Admit or raise a typed :class:`AdmissionError`.

        Returns the tenant's effective quota so the caller does not
        look it up twice.
        """
        if not tenant or any(ch.isspace() for ch in tenant):
            raise AdmissionError(
                tenant or "<empty>",
                "tenant-unknown",
                f"tenant id {tenant!r} is empty or contains whitespace",
            )
        if name is not None and name in known_names:
            raise AdmissionError(
                tenant,
                "duplicate-job",
                f"tenant {tenant!r} already submitted a job named "
                f"{name!r}; job names are the at-most-once key",
            )
        quota = self.quota_for(tenant)
        if (
            quota.max_input_bytes is not None
            and input_bytes > quota.max_input_bytes
        ):
            raise AdmissionError(
                tenant,
                "input-too-large",
                f"input of {input_bytes} bytes exceeds tenant "
                f"{tenant!r}'s cap of {quota.max_input_bytes} bytes",
            )
        if tenant_queued >= quota.max_queued:
            raise AdmissionError(
                tenant,
                "tenant-queue-full",
                f"tenant {tenant!r} already has {tenant_queued} job(s) "
                f"queued (cap {quota.max_queued}); retry after some "
                "drain",
            )
        if total_queued >= self.max_total_queued:
            raise AdmissionError(
                tenant,
                "service-queue-full",
                f"service queue is at its global cap of "
                f"{self.max_total_queued} job(s); retry after some drain",
            )
        return quota
