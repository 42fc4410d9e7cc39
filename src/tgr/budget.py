"""The limits one recognition runs under, checked in one place.

A `Budget` holds the planner's state cap, the execution cap and the
wall-clock deadline. `recognizer.recognize` builds it from its keywords,
and every stage below takes the one value: the planner's fixpoint body
and its policy verification, the external planner, and the
execution walk and count. A stage tests the deadline only through
`Budget.check`, which names the stage in its message, and builds its
cap error here.

A budget is never part of a memo key. Its deadline is an absolute time,
so a key holding it would miss on every lookup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import DeadlineExceeded, ExecutionCapError, PlannerCapError

DEFAULT_STATE_CAP = 500_000
DEFAULT_EXECUTION_CAP = 10_000


@dataclass(frozen=True)
class Budget:
    """`state_cap` bounds the states a planner search numbers,
    `execution_cap` the goal-reaching paths of a policy, and `deadline`,
    a `time.monotonic()` reading or None for none, the wall clock."""

    state_cap: int = DEFAULT_STATE_CAP
    execution_cap: int = DEFAULT_EXECUTION_CAP
    deadline: float | None = None

    def check(self, stage: str) -> None:
        """Raise DeadlineExceeded, naming `stage`, once the monotonic
        clock has passed the deadline."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise DeadlineExceeded(f"{stage} deadline exceeded")

    def state_cap_error(self) -> PlannerCapError:
        return PlannerCapError(
            f"reachable state space exceeded {self.state_cap} states")

    def execution_cap_error(self) -> ExecutionCapError:
        return ExecutionCapError(
            f"policy has more than {self.execution_cap} goal-reaching paths")
