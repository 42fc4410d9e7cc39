"""The strong-cyclic solver and the policy verifier as first written,
kept as test oracles.

The solver expands every state by testing every ground action, then
prunes by rescanning all states until nothing changes. That is
quadratic, but it is short and obviously faithful to the definition, so
`tgr.planner`'s linear solver is checked against it: both must raise the
same errors and return equal policies.

The verifier searches the policy breadth first, then searches back from
the goals. `tgr.planner.verify_policy` must give the same report, reason
text included.
"""

from tgr.errors import PlannerCapError, UnsolvableError
from tgr.planner import DEFAULT_STATE_CAP, Policy, PolicyReport


def solve_strong_cyclic(grounded, *, state_cap=DEFAULT_STATE_CAP):
    """Return a strong-cyclic policy or raise UnsolvableError."""
    if grounded.goal is None:
        raise UnsolvableError("planning task has no goal")

    s0 = grounded.s0
    order = {s0: 0}
    states = [s0]
    goals = set()
    # candidates[s] = list of (action index, outcome states)
    candidates = {}

    i = 0
    while i < len(states):
        state = states[i]
        i += 1
        if grounded.is_goal(state):
            goals.add(state)
            continue
        pairs = []
        for ai in range(len(grounded.actions)):
            if not grounded.applicable(state, ai):
                continue
            outcomes = grounded.successors(state, ai)
            pairs.append((ai, outcomes))
            for succ in outcomes:
                if succ not in order:
                    if len(states) >= state_cap:
                        raise PlannerCapError(
                            f"reachable state space exceeded {state_cap} states")
                    order[succ] = len(states)
                    states.append(succ)
        candidates[state] = pairs

    if s0 in goals:
        return Policy(grounded, {})

    non_goal = [s for s in states if s not in goals]
    changed = True
    while changed:
        changed = False
        # Prune pairs with an outcome that is neither a goal nor a state
        # that still has surviving pairs.
        for state in non_goal:
            pairs = candidates[state]
            if not pairs:
                continue
            kept = [
                (ai, outcomes) for ai, outcomes in pairs
                if all(t in goals or candidates.get(t) for t in outcomes)
            ]
            if len(kept) != len(pairs):
                candidates[state] = kept
                changed = True
        # Prune states from which no goal is weakly reachable through
        # surviving pairs.
        reach = set(goals)
        frontier = True
        while frontier:
            frontier = False
            for state in non_goal:
                if state in reach or not candidates[state]:
                    continue
                if any(t in reach for _, outcomes in candidates[state]
                       for t in outcomes):
                    reach.add(state)
                    frontier = True
        for state in non_goal:
            if state not in reach and candidates[state]:
                candidates[state] = []
                changed = True

    if not candidates.get(s0):
        raise UnsolvableError(
            "no strong-cyclic policy: the initial state was pruned")

    # BFS distance to a goal through surviving pairs, counting each action
    # as one step and taking the best outcome.
    dist = {}
    queue = []
    for state in states:
        if state in goals:
            dist[state] = 0
            queue.append(state)
    rev = {}
    for state in non_goal:
        for _, outcomes in candidates[state]:
            for t in outcomes:
                rev.setdefault(t, []).append(state)
    qi = 0
    while qi < len(queue):
        target = queue[qi]
        qi += 1
        for source in rev.get(target, []):
            if source not in dist:
                dist[source] = dist[target] + 1
                queue.append(source)

    def choice(state):
        best = None
        for ai, outcomes in candidates[state]:
            reachable = [dist[t] for t in outcomes if t in dist]
            if not reachable:
                continue
            key = (min(reachable), ai)
            if best is None or key < best:
                best = key
        if best is None:
            raise UnsolvableError("extraction failed: no surviving action")
        return best[1]

    mapping = {}
    closure = [s0]
    seen = {s0}
    ci = 0
    while ci < len(closure):
        state = closure[ci]
        ci += 1
        if state in goals:
            continue
        ai = choice(state)
        mapping[state] = ai
        for succ in grounded.successors(state, ai):
            if succ not in seen:
                seen.add(succ)
                closure.append(succ)
    return Policy(grounded, mapping)


def verify_policy(policy):
    """Check closure and strong cyclicity by breadth-first search.

    Closed: every state reachable from s0 under the policy is a goal
    state or has an applicable mapped action. Strong cyclic: from every
    reachable state, some goal state is reachable along policy edges.
    The counterexample is the first failing state in breadth-first order.
    """
    g = policy.grounded
    reached = [g.s0]
    seen = {g.s0}
    preds = {}
    goals = []
    closed = True
    counterexample = None
    reason = ""

    i = 0
    while i < len(reached):
        state = reached[i]
        i += 1
        if g.is_goal(state):
            goals.append(state)
            continue
        ai = policy.mapping.get(state)
        if ai is None:
            closed = False
            if counterexample is None:
                counterexample = state
                reason = (f"non-goal state {g.state_str(state)} reachable "
                          "under the policy has no mapped action")
            continue
        if not g.applicable(state, ai):
            closed = False
            if counterexample is None:
                counterexample = state
                reason = (f"mapped action {g.actions[ai].name} is not "
                          f"applicable in {g.state_str(state)}")
            continue
        for succ in g.successors(state, ai):
            preds.setdefault(succ, []).append(state)
            if succ not in seen:
                seen.add(succ)
                reached.append(succ)

    # Backward BFS from the goals along reversed policy edges.
    can_reach = set(goals)
    queue = list(goals)
    qi = 0
    while qi < len(queue):
        for state in preds.get(queue[qi], ()):
            if state not in can_reach:
                can_reach.add(state)
                queue.append(state)
        qi += 1

    strong_cyclic = closed
    for state in reached:
        if state not in can_reach:
            strong_cyclic = False
            if counterexample is None:
                counterexample = state
                reason = (f"no goal state is reachable from "
                          f"{g.state_str(state)} along policy edges")
            break

    if closed and strong_cyclic and not reason:
        reason = "policy is closed and strong cyclic"
    return PolicyReport(closed, strong_cyclic, counterexample, reason)
