"""Enumerate the executions of a strong-cyclic policy.

An execution is a path from the initial state to a goal state that
follows the policy and visits no state more than `MAX_VISITS` times,
which lets each fairness loop fire at most once. Two paths with the
same action sequence count as one execution (the first found in DFS
order is kept as the representative).

Many paths run through the same few policy states, so the work that
depends only on a state is done once per enumeration, the first time a
path reaches it: the goal test, the policy's action and that action's
outcomes, and the atom set. The traces of the kept executions share
these atom-set objects.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

from .errors import DeadlineExceeded, ExecutionCapError, TgrError
from .logic import Atom
from .planner import Policy

DEFAULT_EXECUTION_CAP = 10_000
ABSENT_DISTANCE = math.e ** 5
# A path enters each state at most twice: the paper's "each fairness loop
# fires at most once".
MAX_VISITS = 2


@dataclass(frozen=True)
class Execution:
    """One policy execution: `actions` are the domain action names,
    `trace` the state sequence including the initial state (so
    len(trace) == len(actions) + 1)."""

    actions: tuple[str, ...]
    trace: tuple[frozenset[Atom], ...]


def enumerate_executions(policy: Policy, aug=None, *,
                         cap: int = DEFAULT_EXECUTION_CAP,
                         deadline: float | None = None) -> list[Execution]:
    """All executions of `policy`, deduplicated by action sequence; a
    policy of the compiled task `aug` is walked on the goal product.

    Raises ExecutionCapError when more than `cap` goal-reaching paths are
    found before deduplication, and DeadlineExceeded when the monotonic
    clock passes `deadline` (checked at the start and every 512 steps).
    """
    if aug is not None:
        policy = aug.product_policy(policy)
    g = policy.grounded

    # Per state, filled the first time a path reaches it: the atom set,
    # and the step: the policy action's name and its outcomes, or () at a
    # goal state.
    views: dict[int, frozenset[Atom]] = {}
    steps: dict[int, tuple] = {}

    def reach(state: int) -> tuple:
        views[state] = g.atoms_of(state)
        if g.is_goal(state):
            step: tuple = ()
        else:
            ai = policy.mapping.get(state)
            if ai is None:
                raise TgrError(
                    f"policy is not closed: no action for {g.state_str(state)}")
            step = (g.actions[ai].name, g.successors(state, ai))
        steps[state] = step
        return step

    # The current path: its actions, and the views of the initial state
    # and of the state after each action. The frame at stack depth d holds
    # the state after d actions, its action's name and untried outcomes.
    start = reach(g.s0)
    actions: list[str] = []
    trace: list[frozenset[Atom]] = [views[g.s0]]

    kept: dict[tuple[str, ...], Execution] = {}
    raw_found = 0

    def record() -> None:
        nonlocal raw_found
        raw_found += 1
        if raw_found > cap:
            raise ExecutionCapError(
                f"policy has more than {cap} goal-reaching paths")
        key = tuple(actions)
        if key not in kept:
            kept[key] = Execution(key, tuple(trace))

    if not start:
        record()
        return list(kept.values())

    visit_counts: dict[int, int] = {g.s0: 1}
    stack = [(g.s0, start[0], iter(start[1]))]
    n_steps = 0
    while stack:
        if (deadline is not None and not n_steps % 512
                and time.monotonic() > deadline):
            raise DeadlineExceeded("execution enumeration deadline exceeded")
        n_steps += 1
        state, name, pending = stack[-1]
        succ = next(pending, None)
        if succ is None:
            stack.pop()
            visit_counts[state] -= 1
            continue
        if visit_counts.get(succ, 0) >= MAX_VISITS:
            continue
        step = steps.get(succ)
        if step is None:
            step = reach(succ)
        depth = len(stack) - 1
        del actions[depth:], trace[depth + 1:]
        actions.append(name)
        trace.append(views[succ])
        if not step:
            record()
            continue
        visit_counts[succ] = visit_counts.get(succ, 0) + 1
        stack.append((succ, step[0], iter(step[1])))

    return list(kept.values())


def average_distances(executions: list[Execution]) -> dict[str, float]:
    """Mean number of actions remaining after each occurrence of an action,
    averaged over all its occurrences across all executions."""
    totals: dict[str, int] = {}
    counts: dict[str, int] = {}
    for ex in executions:
        n = len(ex.actions)
        for i, name in enumerate(ex.actions):
            totals[name] = totals.get(name, 0) + (n - 1 - i)
            counts[name] = counts.get(name, 0) + 1
    return {name: totals[name] / counts[name] for name in totals}


def order_relations(execution: Execution) -> frozenset[tuple[str, str]]:
    """All ordered pairs (earlier, later) of actions in the execution."""
    return frozenset(itertools.combinations(execution.actions, 2))
