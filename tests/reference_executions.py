"""The execution enumerator as written before per-state caching, kept as
a test oracle.

It walks the policy depth first and recomputes every state's action,
outcomes and projected atoms on each path that reaches it. That is
slow, but it follows the definition step by step, so
`tgr.executions.enumerate_executions` is checked against it: both must
return equal execution lists and raise at the same caps.

A compiled task is walked as it is, not translated onto the goal
product: the sync action is skipped and the automaton fluents are
projected away. So the comparison also checks the translation.

`strip_sync` is the same check for an action sequence alone: it drops
the sync actions of a compiled execution, which must alternate with the
domain actions.
"""

from tgr.errors import ExecutionCapError, TgrError
from tgr.executions import DEFAULT_EXECUTION_CAP, Execution


def enumerate_executions(policy, aug=None, *, cap=DEFAULT_EXECUTION_CAP,
                         max_visits=2):
    """All executions of `policy`, deduplicated by stripped action sequence.

    Raises ExecutionCapError when more than `cap` goal-reaching paths are
    found before deduplication.
    """
    g = policy.grounded
    if aug is not None and aug.grounded is not g:
        raise TgrError("policy was not produced from the given compiled task")
    sync = (g.action_index[f"({aug.sync_schema})"] if aug is not None
            else None)
    bookkeeping = (frozenset(aug.q_atoms) | {aug.turn_atom} if aug is not None
                   else frozenset())

    # The current path: its actions other than the sync action, and the
    # initial state followed by the state after each of those. A frame
    # keeps the length of the first at its state to cut back to.
    actions = []
    trace = [g.s0]

    kept = {}
    raw_found = 0

    def record():
        nonlocal raw_found
        raw_found += 1
        if raw_found > cap:
            raise ExecutionCapError(
                f"policy has more than {cap} goal-reaching paths")
        key = tuple(actions)
        if key not in kept:
            kept[key] = Execution(
                key, tuple(g.atoms_of(s) - bookkeeping for s in trace))

    visit_counts = {g.s0: 1}

    if g.is_goal(g.s0):
        record()
        return list(kept.values())

    def frame_for(state):
        ai = policy.mapping.get(state)
        if ai is None:
            raise TgrError(
                f"policy is not closed: no action for {g.state_str(state)}")
        return [state, ai, g.successors(state, ai), 0, len(actions)]

    stack = [frame_for(g.s0)]
    while stack:
        frame = stack[-1]
        state, ai, outcomes, idx, n_kept = frame
        if idx >= len(outcomes):
            stack.pop()
            visit_counts[state] -= 1
            continue
        frame[3] += 1
        succ = outcomes[idx]
        if visit_counts.get(succ, 0) >= max_visits:
            continue
        del actions[n_kept:], trace[n_kept + 1:]
        if ai != sync:
            actions.append(g.actions[ai].name)
            trace.append(succ)
        if g.is_goal(succ):
            record()
            continue
        visit_counts[succ] = visit_counts.get(succ, 0) + 1
        stack.append(frame_for(succ))

    return list(kept.values())


class MalformedAlternationError(TgrError):
    """Action sequence violates the sync/domain alternation discipline."""


def strip_sync(actions, sync_schema: str = "trans") -> list[str]:
    """Remove sync actions from a compiled action sequence.

    Valid sequences alternate strictly, starting and ending with a sync
    action: t, a1, t, a2, ..., t. Anything else is malformed.
    """

    def is_sync(name: str) -> bool:
        head = name[1:-1].split() if name.startswith("(") else name.split()
        return bool(head) and head[0] == sync_schema

    acts = list(actions)
    if not acts:
        raise MalformedAlternationError(
            "empty sequence: a compiled execution starts with the sync action")
    out: list[str] = []
    for i, name in enumerate(acts):
        if i % 2 == 0:
            if not is_sync(name):
                raise MalformedAlternationError(
                    f"expected the sync action at position {i}, found {name}")
        else:
            if is_sync(name):
                raise MalformedAlternationError(
                    f"unexpected sync action at position {i}")
            out.append(name)
    if len(acts) % 2 == 0:
        raise MalformedAlternationError(
            "compiled execution must end with the sync action")
    return out
