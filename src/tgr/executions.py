"""Enumerate the executions of a strong-cyclic policy, or count them
into a goal model.

An execution is a path from the initial state to a goal state that
follows the policy and visits no state more than `MAX_VISITS` times,
which lets each fairness loop fire at most once. Two paths with the
same action sequence count as one execution (the first found in DFS
order is kept as the representative).

Both entry points read the policy's graph, from `planner._graph_of`: the
reachable states numbered depth first, with each state's action label
and outcome ids. That is the graph `planner.verify_policy` built, while
the policy still maps its states as verified, and otherwise one built
afresh from the model. `enumerate_executions` then walks the paths over
those ids depth first, keeping the first path of each action sequence
with its state trace.

`goal_model` counts the executions instead, so its work grows with the
policy rather than with its paths. A configuration is a policy state
together with the visit counts of the path that reached it. A state
visited earlier that the current state can reach again lies on a cycle
through the current state, so only the counts of the current state's
strongly connected component matter: a configuration keeps just those,
and every path that continues from it depends on nothing else. Each
configuration is counted once however many paths reach it. The cap
still counts raw goal-reaching paths, before deduplication, in the
walk's order, and a state the policy does not map raises where the walk
first enters it, so the count fails as the walk does without walking.

Both entry points take the recognition's `budget.Budget`: its execution
cap, and its deadline, which they test only through `Budget.check`
("execution enumeration deadline exceeded"), as does the numbering of a
graph built afresh.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .budget import DEFAULT_EXECUTION_CAP, Budget  # callers read the cap here
from .errors import TgrError
from .fond import StateModel
from .logic import Atom
from .planner import Policy, _graph_of

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


def _not_closed(g: StateModel, state: int) -> TgrError:
    return TgrError("policy is not closed: no action for "
                    f"{g.state_str(state)}")


def _walk(g: StateModel, graph: tuple, budget: Budget) -> list[Execution]:
    """The executions of the policy that `graph` (from `_graph_of`)
    numbers on the model `g`, walked depth first over the graph's ids:
    the first path, in DFS order, of each distinct action sequence.

    Raises ExecutionCapError when more than the budget's execution cap of
    goal-reaching paths are found before deduplication, TgrError at the
    first state the walk reaches that the policy does not map, and
    DeadlineExceeded when the budget's deadline passes (checked at the
    start and every 512 steps).
    """
    names, label_of, outs, _, states, goals = graph
    views = [g.atoms_of(s) for s in states]
    goal_views = [g.atoms_of(s) for s in goals]
    kept: dict[tuple[str, ...], Execution] = {}
    found, cap = 0, budget.execution_cap
    # The current path's action names and trace.
    actions: list[str] = []
    trace = [views[0] if states else goal_views[0]]

    def arrive() -> None:
        nonlocal found
        found += 1
        if found > cap:
            raise budget.execution_cap_error()
        key = tuple(actions)
        if key not in kept:
            kept[key] = Execution(key, tuple(trace))

    if not states:
        arrive()
        return list(kept.values())
    if label_of[0] < 0:
        raise _not_closed(g, states[0])
    # The frame at stack depth d holds the state after d actions and its
    # action's untried outcomes.
    visits = [0] * len(states)
    visits[0] = 1
    stack = [(0, iter(outs[0]))]
    timed = budget.deadline is not None
    n_steps = 0
    while stack:
        if timed:
            if not n_steps % 512:
                budget.check("execution enumeration")
            n_steps += 1
        v, pending = stack[-1]
        t = next(pending, None)
        if t is None:
            stack.pop()
            visits[v] -= 1
            continue
        if t >= 0 and visits[t] >= MAX_VISITS:
            continue
        depth = len(stack) - 1
        del actions[depth:], trace[depth + 1:]
        actions.append(names[label_of[v]])
        if t < 0:
            trace.append(goal_views[~t])
            arrive()
            continue
        if label_of[t] < 0:
            raise _not_closed(g, states[t])
        trace.append(views[t])
        visits[t] += 1
        stack.append((t, iter(outs[t])))
    return list(kept.values())


def enumerate_executions(policy: Policy, aug=None, *,
                         budget: Budget = Budget()) -> list[Execution]:
    """All executions of `policy`, deduplicated by action sequence; a
    policy of the compiled task `aug` is walked on the goal product.
    The traces share one atom-set object per state.

    Raises ExecutionCapError when more than the budget's execution cap of
    goal-reaching paths are found before deduplication, and
    DeadlineExceeded when the budget's deadline passes (checked at the
    start of the walk, every 512 steps, and every 512 states numbered
    before it).
    """
    if aug is not None:
        policy = aug.product_policy(policy, budget=budget)
    return _walk(policy.grounded, _graph_of(policy, budget), budget)


def goal_model(policy: Policy, *, budget: Budget = Budget()
               ) -> tuple[int, dict[str, float], frozenset[tuple[str, str]]]:
    """The goal model of `policy`'s executions E, counted without listing
    them: (len(E), average_distances(E), the union of order_relations
    over E).

    The count runs over configurations (see the module docstring).
    Determinized by action label, they form a DAG each node of which
    stands for the action sequences that reach one set of
    configurations. A depth-first pass over the nodes reachable from the
    initial configuration counts, in post-order, each node's distinct
    suffixes and their summed length; a forward pass then counts each
    node's distinct prefixes and the labels on them. Together they give
    the model as exact ints. A policy whose s0 is a goal has one
    execution, with no actions.

    Raises as `enumerate_executions` does, at the same point of the
    walk's order. The cap counts goal-reaching paths before
    deduplication, in that order, so the count raises no later than the
    walk would. An unmapped state raises when the count first expands
    it, where the walk first enters it. The deadline is checked at the
    start and every 512 states, configurations or nodes expanded.
    """
    budget.check("execution enumeration")
    names, label_of, outs, comp, states, _ = _graph_of(policy, budget)
    cap = budget.execution_cap
    if not outs:  # s0 is a goal
        if cap < 1:
            raise budget.execution_cap_error()
        return 1, {}, frozenset()
    n = len(outs)
    expanded = n  # states, configurations and nodes

    # The configurations, depth first in the walk's order. A key is the
    # state id plus n times the bits of its component's states entered
    # once (the low n bits) and twice (the next n, as MAX_VISITS is 2); a
    # state on no cycle is its own key. info[key] = ((label, 1 if some
    # outcome is a goal else 0, the node of the successor
    # configurations), raw paths), where a node is a set of keys: None
    # when empty, the key itself when single, else a frozenset.
    info: dict[int, tuple] = {}
    found = 0  # raw paths so far: +1 per goal outcome, +raw per memo hit
    once = 1 if comp[0] >= 0 else 0
    root = n * once
    stack = [[root, 0, once, 0, iter(outs[0]), [], 0, 0]]
    while stack:
        frame = stack[-1]
        key, i, once, twice, pending, kids, ends, start = frame
        for t in pending:
            if t < 0:
                ends = 1
                found += 1
            else:
                c = comp[t]
                if c < 0:
                    child, o, w = t, 0, 0
                else:
                    if c != comp[i]:
                        o, w = 1 << t, 0
                    else:
                        bit = 1 << t
                        if twice & bit:
                            continue  # a third entry
                        o, w = ((once & ~bit, twice | bit) if once & bit
                                else (once | bit, twice))
                    child = t + n * (o | w << n)
                kids.append(child)
                hit = info.get(child)
                if hit is None:
                    frame[6] = ends
                    expanded += 1
                    if not expanded % 512:
                        budget.check("execution enumeration")
                    stack.append([child, t, o, w, iter(outs[t]), [], 0,
                                  found])
                    break
                found += hit[1]
            if found > cap:
                raise budget.execution_cap_error()
        else:
            stack.pop()
            if label_of[i] < 0:  # expanded just now, with no outcomes
                raise _not_closed(policy.grounded, states[i])
            node = (None if not kids else kids[0] if len(kids) == 1
                    else frozenset(kids))
            info[key] = ((label_of[i], ends, node), found - start)

    # Determinize by label, depth first from the root's node. Nodes are
    # numbered when they finish, so edges lead to lower numbers and the
    # root is last. Per node: its edges (label, executions through the
    # edge, the actions they take after it, child number or -1), its
    # distinct suffixes and their summed length.
    numbers: dict[int | frozenset[int], int] = {}
    edges: list[list[tuple[int, int, int, int]]] = []
    kept: list[int] = []
    after: list[int] = []
    todo: list[list] = [[root, None]]
    while todo:
        frame = todo[-1]
        node, steps = frame
        if steps is None:
            expanded += 1
            if not expanded % 512:
                budget.check("execution enumeration")
            if type(node) is int:
                steps = (info[node][0],)
            else:
                # A label that one configuration of the set takes leads
                # to that configuration's successor node.
                by_label: dict[int, list] = {}
                for key in node:
                    step = info[key][0]
                    by_label.setdefault(step[0], []).append(step)
                steps = []
                for lab, group in by_label.items():
                    if len(group) == 1:
                        steps.append(group[0])
                        continue
                    ends, union = 0, set()
                    for _, e, child in group:
                        ends |= e
                        if type(child) is int:
                            union.add(child)
                        elif child:
                            union.update(child)
                    steps.append((lab, ends, None if not union else
                                  union.pop() if len(union) == 1
                                  else frozenset(union)))
            frame[1] = steps
        for _, _, child in steps:
            if child is not None and child not in numbers:
                todo.append([child, None])
                break
        else:
            todo.pop()
            row = []
            k_sum = a_sum = 0
            for lab, ends, child in steps:
                if child is None:
                    k, a, c = ends, 0, -1
                else:
                    c = numbers[child]
                    k, a = ends + kept[c], after[c]
                row.append((lab, k, a, c))
                k_sum += k
                a_sum += k + a
            numbers[node] = len(edges)
            edges.append(row)
            kept.append(k_sum)
            after.append(a_sum)

    # Forward, parents before children: per node the distinct prefixes
    # that reach it and the bit set of the labels on them; `before[lab]`
    # is the bit set of the labels some execution orders before lab.
    # Nodes no prefix reaches have none.
    top = len(edges) - 1
    prefixes = [0] * top + [1]
    seen = [0] * (top + 1)
    totals = [0] * len(names)
    counts = [0] * len(names)
    before = [0] * len(names)
    for x in range(top, -1, -1):
        p = prefixes[x]
        if not p:
            continue
        s = seen[x]
        for lab, k, a, c in edges[x]:
            if not k:
                continue
            counts[lab] += p * k
            totals[lab] += p * a
            before[lab] |= s
            if c >= 0:
                prefixes[c] += p
                seen[c] |= s | 1 << lab
    distances = {names[lab]: totals[lab] / counts[lab]
                 for lab in range(len(names)) if counts[lab]}
    pairs = frozenset((names[x], names[lab])
                      for lab, mask in enumerate(before)
                      for x in range(mask.bit_length()) if mask >> x & 1)
    return kept[top], distances, pairs


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
