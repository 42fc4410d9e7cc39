"""The execution enumerator as written before per-state caching, kept as
a test oracle.

It walks the policy depth first and recomputes every state's action,
outcomes and projected atoms on each path that reaches it. That is
slow, but it follows the definition step by step, so
`tgr.executions.enumerate_executions` is checked against it: both must
return equal execution lists and raise at the same caps.
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
    sync = g.action_index[aug.sync_name] if aug is not None else None
    project = aug.project if aug is not None else (lambda atoms: atoms)

    # The current path: all its actions, those other than the sync action,
    # and the initial state followed by the state after each of those. A
    # frame keeps the lengths of the first two at its state to cut back to.
    raw = []
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
                key, tuple(project(g.atoms_of(s)) for s in trace), tuple(raw))

    visit_counts = {g.s0: 1}

    if g.is_goal(g.s0):
        record()
        return list(kept.values())

    def frame_for(state):
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
