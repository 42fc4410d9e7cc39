"""Enumerate the executions of a strong-cyclic policy, or reduce them
to a goal model.

An execution is a path from the initial state to a goal state that
follows the policy and visits no state more than `MAX_VISITS` times,
which lets each fairness loop fire at most once. Two paths with the
same action sequence count as one execution (the first found in DFS
order is kept as the representative).

One depth-first walk serves both uses. Many paths run through the same
few policy states, so the work that depends only on a state is done
once per walk, the first time a path reaches it: the goal test, the
policy's action and that action's outcomes. Alongside the paths the
walk builds the trie of their action sequences, which deduplicates them
at one dict lookup per step. `enumerate_executions` builds each
execution, with its state trace, the first time its trie node is
reached at a goal; `goal_model` never builds one, and reads the
distance table and the ordered pairs off the trie instead.
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


@dataclass(frozen=True, slots=True)
class Execution:
    """One policy execution: `actions` are the domain action names,
    `trace` the state sequence including the initial state (so
    len(trace) == len(actions) + 1)."""

    actions: tuple[str, ...]
    trace: tuple[frozenset[Atom], ...]


def _walk(policy: Policy, cap: int, deadline: float | None,
          kept: list[Execution] | None = None) -> tuple:
    """Walk every goal-reaching path of `policy` depth first and return
    the trie of their action sequences as (names, edges, ends).

    Node 0 is the empty sequence. `edges` maps parent * len(actions) +
    label to node i > 0, which extends the sequence of node `parent` by
    the action named `names[label]`; nodes are numbered in creation
    order, so parents first. `ends` holds the nodes whose sequence some
    goal-reaching path has. When `kept` is given, the walk also tracks
    the current path's action names and trace, and appends to `kept`
    the first path, in DFS order, of each execution.

    Raises ExecutionCapError when more than `cap` goal-reaching paths are
    found before deduplication, and DeadlineExceeded when the monotonic
    clock passes `deadline` (checked at the start and every 512 steps).
    """
    g = policy.grounded
    width = len(g.actions)
    labels: dict[int, int] = {}  # action index -> label
    names: list[str] = []
    views: dict[int, frozenset[Atom]] = {}

    # Per state, filled the first time a path reaches it: the policy
    # action's label, name and outcomes, or () at a goal state; and the
    # atom set, when the walk tracks traces.
    steps: dict[int, tuple] = {}

    def reach(state: int) -> tuple:
        if kept is not None:
            views[state] = g.atoms_of(state)
        if g.is_goal(state):
            step: tuple = ()
        else:
            ai = policy.mapping.get(state)
            if ai is None:
                raise TgrError(
                    f"policy is not closed: no action for {g.state_str(state)}")
            lab = labels.get(ai)
            if lab is None:
                lab = labels[ai] = len(names)
                names.append(g.actions[ai].name)
            step = (lab, names[lab], g.successors(state, ai))
        steps[state] = step
        return step

    edges: dict[int, int] = {}
    ends: set[int] = set()
    raw_found = 0
    # The current path's action names and trace, when tracked.
    actions: list[str] = []
    trace: list[frozenset[Atom]] = []

    def arrive(node: int) -> None:
        nonlocal raw_found
        raw_found += 1
        if raw_found > cap:
            raise ExecutionCapError(
                f"policy has more than {cap} goal-reaching paths")
        if node not in ends:
            ends.add(node)
            if kept is not None:
                kept.append(Execution(tuple(actions), tuple(trace)))

    start = reach(g.s0)
    if kept is not None:
        trace.append(views[g.s0])
    if not start:
        arrive(0)
        return names, edges, ends

    # The frame at stack depth d holds the state after d actions, its
    # action's untried outcomes, the trie node of the d + 1 actions that
    # reach those outcomes, and the action's name.
    edges[start[0]] = 1
    visit_counts: dict[int, int] = {g.s0: 1}
    stack = [(g.s0, iter(start[2]), 1, start[1])]
    tracked = kept is not None
    n_steps = 0
    while stack:
        if deadline is not None:
            if not n_steps % 512 and time.monotonic() > deadline:
                raise DeadlineExceeded(
                    "execution enumeration deadline exceeded")
            n_steps += 1
        state, pending, node, name = stack[-1]
        succ = next(pending, None)
        if succ is None:
            stack.pop()
            visit_counts[state] -= 1
            continue
        visits = visit_counts.get(succ, 0)
        if visits >= MAX_VISITS:
            continue
        step = steps.get(succ)
        if step is None:
            step = reach(succ)
        if tracked:
            depth = len(stack) - 1
            del actions[depth:], trace[depth + 1:]
            actions.append(name)
            trace.append(views[succ])
        if not step:
            arrive(node)
            continue
        visit_counts[succ] = visits + 1
        child = edges.setdefault(node * width + step[0], len(edges) + 1)
        stack.append((succ, iter(step[2]), child, step[1]))

    return names, edges, ends


def enumerate_executions(policy: Policy, aug=None, *,
                         cap: int = DEFAULT_EXECUTION_CAP,
                         deadline: float | None = None) -> list[Execution]:
    """All executions of `policy`, deduplicated by action sequence; a
    policy of the compiled task `aug` is walked on the goal product.
    The traces share one atom-set object per state.

    Raises ExecutionCapError when more than `cap` goal-reaching paths are
    found before deduplication, and DeadlineExceeded when the monotonic
    clock passes `deadline` (checked at the start and every 512 steps).
    """
    if aug is not None:
        policy = aug.product_policy(policy)
    kept: list[Execution] = []
    _walk(policy, cap, deadline, kept)
    return kept


def goal_model(policy: Policy, *, cap: int = DEFAULT_EXECUTION_CAP,
               deadline: float | None = None
               ) -> tuple[int, dict[str, float], frozenset[tuple[str, str]]]:
    """The goal model of `policy`'s executions E, without building them:
    (len(E), average_distances(E), the union of order_relations over E).

    Raises as `enumerate_executions` does; the cap counts goal-reaching
    paths before deduplication.
    """
    names, edges, ends = _walk(policy, cap, deadline)
    width = len(policy.grounded.actions)
    nodes = len(edges) + 1
    # Per node i: kept[i] executions extend its sequence, and after[i]
    # sums the actions they take after it. `edges` lists the nodes in
    # creation order. An execution through child c of i takes one action
    # more after i than after c.
    kept = [0] * nodes
    after = [0] * nodes
    for i in ends:
        kept[i] = 1
    for key, i in reversed(edges.items()):  # children before parents
        p = key // width
        kept[p] += kept[i]
        after[p] += after[i] + kept[i]
    # `seen[i]` is the bit set of labels on the way to node i, and
    # `before[lab]` that of the labels some execution orders before an
    # action labelled lab.
    totals = [0] * len(names)
    counts = [0] * len(names)
    before = [0] * len(names)
    seen = [0] * nodes
    for key, i in edges.items():  # parents before children
        k = kept[i]
        if not k:
            continue
        p, lab = divmod(key, width)
        totals[lab] += after[i]
        counts[lab] += k
        before[lab] |= seen[p]
        seen[i] = seen[p] | 1 << lab
    distances = {names[lab]: totals[lab] / counts[lab]
                 for lab in range(len(names)) if counts[lab]}
    pairs = frozenset((names[x], names[lab])
                      for lab, mask in enumerate(before)
                      for x in range(mask.bit_length()) if mask >> x & 1)
    return kept[0], distances, pairs


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
