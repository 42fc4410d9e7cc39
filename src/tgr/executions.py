"""Enumerate the executions of a strong-cyclic policy.

An execution is a path from the initial state to a goal state that
follows the policy and visits no state more than twice, which lets each
fairness loop fire at most once. For compiled tasks the sync actions are
stripped and the bookkeeping fluents projected away; two paths with the
same stripped action sequence count as one execution (the first found in
DFS order is kept as the representative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import compilation
from .errors import ExecutionCapError, TgrError
from .logic import Atom
from .planner import Policy

DEFAULT_EXECUTION_CAP = 10_000
ABSENT_DISTANCE = math.e ** 5


@dataclass(frozen=True)
class Execution:
    """One policy execution after stripping and projection.

    `actions` are the observable action names, `trace` the projected
    state sequence including the initial state (so len(trace) ==
    len(actions) + 1), and `raw_actions` the unstripped sequence.
    """

    actions: tuple[str, ...]
    trace: tuple[frozenset[Atom], ...]
    raw_actions: tuple[str, ...]


def enumerate_executions(policy: Policy,
                         aug: "compilation.AugmentedProblem | None" = None,
                         *, cap: int = DEFAULT_EXECUTION_CAP,
                         max_visits: int = 2) -> list[Execution]:
    """All executions of `policy`, deduplicated by stripped action sequence.

    Raises ExecutionCapError when more than `cap` goal-reaching paths are
    found before deduplication.
    """
    g = policy.grounded
    if aug is not None and aug.grounded is not g:
        raise TgrError("policy was not produced from the given compiled task")
    sync = g.action_index[aug.sync_name] if aug is not None else None
    project = aug.project if aug is not None else (lambda atoms: atoms)

    # The current path: all its actions, those other than the sync action,
    # and the initial state followed by the state after each of those. A
    # frame keeps the lengths of the first two at its state to cut back to.
    raw: list[str] = []
    actions: list[str] = []
    trace: list[frozenset[int]] = [g.s0]

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
            kept[key] = Execution(
                key, tuple(project(g.atoms_of(s)) for s in trace), tuple(raw))

    visit_counts: dict[frozenset[int], int] = {g.s0: 1}

    if g.is_goal(g.s0):
        record()
        return list(kept.values())

    def frame_for(state: frozenset[int]):
        ai = policy.mapping.get(state)
        if ai is None:
            raise TgrError(
                f"policy is not closed: no action for {g.state_str(state)}")
        return [state, ai, g.successors(state, ai), 0, len(raw), len(actions)]

    stack = [frame_for(g.s0)]
    while stack:
        frame = stack[-1]
        state, ai, outcomes, idx, n_raw, n_kept = frame
        if idx >= len(outcomes):
            stack.pop()
            visit_counts[state] -= 1
            continue
        frame[3] += 1
        succ = outcomes[idx]
        if visit_counts.get(succ, 0) >= max_visits:
            continue
        del raw[n_raw:], actions[n_kept:], trace[n_kept + 1:]
        raw.append(g.actions[ai].name)
        if ai != sync:
            actions.append(raw[-1])
            trace.append(succ)
        if g.is_goal(succ):
            record()
            continue
        visit_counts[succ] = visit_counts.get(succ, 0) + 1
        stack.append(frame_for(succ))

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
    acts = execution.actions
    return frozenset((acts[i], acts[j])
                     for i in range(len(acts))
                     for j in range(i + 1, len(acts)))
