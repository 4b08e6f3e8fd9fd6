"""Per-tenant circuit breaker over repeated job failures.

A tenant whose jobs keep failing (corrupt archives, pathological
parameters, a poisoned corpus) must not be allowed to monopolize the
scheduler with doomed retries.  The breaker is the classic three
state machine, with one deliberate twist: its cooldown is measured in
**scheduling rounds**, not wall-clock seconds, so the whole service —
breakers included — replays deterministically in tests and in the
chaos harness.

* ``closed`` — failures are counted; ``failure_threshold`` consecutive
  job failures trip the breaker open (a success resets the streak);
* ``open`` — submissions are shed with a typed
  :class:`~repro.errors.CircuitOpenError` and queued jobs are held;
  after ``cooldown_rounds`` scheduling rounds the breaker half-opens;
* ``half-open`` — exactly one *probe* job is let through; its success
  closes the breaker, its failure re-opens it for a fresh cooldown.
"""

from __future__ import annotations

from repro.errors import CircuitOpenError

__all__ = ["CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """One tenant's failure-streak state machine."""

    def __init__(
        self,
        tenant: str,
        failure_threshold: int = 3,
        cooldown_rounds: int = 8,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_rounds < 1:
            raise ValueError("cooldown_rounds must be >= 1")
        self.tenant = tenant
        self.failure_threshold = failure_threshold
        self.cooldown_rounds = cooldown_rounds
        self.state = CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self._opened_at_round = 0
        self._probe_outstanding = False

    # ----- queries ----------------------------------------------------------

    def retry_after(self, current_round: int) -> int:
        """Rounds until an open breaker half-opens (0 when not open)."""
        if self.state != OPEN:
            return 0
        remaining = self.cooldown_rounds - (
            current_round - self._opened_at_round
        )
        return max(0, remaining)

    def allows_dispatch(self, current_round: int) -> bool:
        """May one of this tenant's queued jobs start right now?

        Open breakers hold their tenant's queue until the cooldown
        elapses, then admit exactly one probe at a time.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self.retry_after(current_round) > 0:
                return False
            self.state = HALF_OPEN
            self._probe_outstanding = False
        return not self._probe_outstanding

    def check_submission(self, current_round: int) -> None:
        """Shed a new submission while the breaker is open."""
        if self.state == OPEN and self.retry_after(current_round) > 0:
            raise CircuitOpenError(
                self.tenant, self.retry_after(current_round)
            )

    # ----- transitions ------------------------------------------------------

    def on_dispatch(self) -> None:
        """A job of this tenant started; mark the half-open probe."""
        if self.state == HALF_OPEN:
            self._probe_outstanding = True

    def on_success(self) -> None:
        self.consecutive_failures = 0
        self.state = CLOSED
        self._probe_outstanding = False

    def on_failure(self, current_round: int) -> bool:
        """Record one terminal job failure; True when this trips it."""
        self._probe_outstanding = False
        if self.state == HALF_OPEN:
            # the probe failed: straight back to a fresh cooldown
            self.state = OPEN
            self._opened_at_round = current_round
            self.trips += 1
            return True
        self.consecutive_failures += 1
        if (
            self.state == CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.state = OPEN
            self._opened_at_round = current_round
            self.trips += 1
            return True
        return False
