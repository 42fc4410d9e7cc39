"""Strong-cyclic planning over FOND state models.

The solver and the verifier read a model through `fond.StateModel`: a
`fond.GroundedFond`, whose states are `int` bitmasks (bit i set iff
fluent i holds), or the goal product of `compilation.GoalProduct`. A
policy maps such states to ground action indices.

The solver works in two stages. First the model explores its reachable
state space breadth first (`explore`) and returns it as a
`fond.StateGraph`: states numbered in discovery order, and one
id-indexed table of state-action pairs holding each pair's state, its
action, and the ids of its outcomes. The pairs of a state are
contiguous and in ascending action order. A grounding derives each
state's transitions afresh; a goal product reads them from the
transition table its goal-free grounding shares with every other goal
over it, keys its nodes by table id, builds a node's state only when
the policy maps it, and does not expand a node whose automaton can no
longer accept. Second, one path prunes, measures goal distances and
extracts the policy, whatever the model. The verifier reads only the
policy's own actions, through `applicable` and `successors`.

Pruning runs to a fixpoint over reverse edges (target state to the
pairs that lead into it) and per-state counters of live pairs. A dead
state kills every pair leading into it, and a state whose counter drops
to zero dies in turn; dead states are propagated through a worklist.
Each round then runs one backward BFS from the goals through live pairs,
and kills the live states that reach no goal. Every round is linear in
the size of the table, and the search stops after a round that kills
nothing. Surviving pairs reach the goal under the usual fairness
assumption: every outcome of an action that is tried infinitely often
occurs infinitely often.

The final round's BFS gives each surviving state its goal distance
(each action one step, taking the best outcome). The extracted policy
picks, per state, the action whose best outcome is closest to the goal,
breaking ties by lowest ground-action index. The result is deterministic
and is checked by `verify_policy` before being returned.
"""

from __future__ import annotations

import re
import subprocess
import tempfile
import time
from dataclasses import dataclass, field

from . import fond
from .errors import (DeadlineExceeded, ExternalPlannerError, PolicyParseError,
                     UnsolvableError)
from .fond import GroundedFond, StateModel
from .logic import Atom

DEFAULT_STATE_CAP = 500_000


@dataclass
class Policy:
    """A partial mapping from non-goal states to ground action indices."""

    grounded: StateModel
    mapping: dict[int, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.mapping)


@dataclass
class PolicyReport:
    """Outcome of the independent policy check."""

    closed: bool
    strong_cyclic: bool
    counterexample: int | None = None
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.closed and self.strong_cyclic


def solve_strong_cyclic(grounded: StateModel, *,
                        state_cap: int = DEFAULT_STATE_CAP,
                        deadline: float | None = None) -> Policy:
    """Return a strong-cyclic policy or raise UnsolvableError."""
    if grounded.goal is None:
        raise UnsolvableError("planning task has no goal")
    if grounded.is_goal(grounded.s0):
        return Policy(grounded, {})
    graph = grounded.explore(state_cap, deadline)
    goal_ids, first_pair, pair_state, pair_action, pair_outcomes = (
        graph.goal_ids, graph.first_pair, graph.pair_state,
        graph.pair_action, graph.pair_outcomes)

    n = len(first_pair) - 1
    into: list[list[int]] = [[] for _ in range(n)]
    for p, outcomes in enumerate(pair_outcomes):
        for t in outcomes:
            into[t].append(p)
    alive = bytearray(b"\x01") * len(pair_action)
    live = [first_pair[s + 1] - first_pair[s] for s in range(n)]
    is_goal = bytearray(n)
    for s in goal_ids:
        is_goal[s] = 1
    dead = [s for s in range(n) if not live[s] and not is_goal[s]]

    while True:
        fond._check_deadline(deadline)
        # A pair dies with any of its outcomes; a state dies with its
        # last live pair.
        while dead:
            for p in into[dead.pop()]:
                if alive[p]:
                    alive[p] = 0
                    s = pair_state[p]
                    live[s] -= 1
                    if not live[s]:
                        dead.append(s)
        # Goal distances through live pairs; a live state that gets none
        # reaches no goal and dies.
        dist = [-1] * n
        for s in goal_ids:
            dist[s] = 0
        queue = list(goal_ids)
        qi = 0
        while qi < len(queue):
            t = queue[qi]
            qi += 1
            d = dist[t] + 1
            for p in into[t]:
                if alive[p]:
                    s = pair_state[p]
                    if dist[s] < 0:
                        dist[s] = d
                        queue.append(s)
        for s in range(n):
            if live[s] and dist[s] < 0:
                live[s] = 0
                for p in range(first_pair[s], first_pair[s + 1]):
                    alive[p] = 0
                dead.append(s)
        if not dead:
            break

    if not live[0]:
        raise UnsolvableError(
            "no strong-cyclic policy: the initial state was pruned")

    mapping: dict[int, int] = {}
    closure = [0]
    seen = {0}
    ci = 0
    while ci < len(closure):
        s = closure[ci]
        ci += 1
        if is_goal[s]:
            continue
        best: tuple[int, int] | None = None
        for p in range(first_pair[s], first_pair[s + 1]):
            if alive[p]:
                key = (min(dist[t] for t in pair_outcomes[p]), pair_action[p])
                if best is None or key < best:
                    best, chosen = key, p
        mapping[graph.state(s)] = pair_action[chosen]
        for t in pair_outcomes[chosen]:
            if t not in seen:
                seen.add(t)
                closure.append(t)

    policy = Policy(grounded, mapping)
    report = verify_policy(policy)
    if not report.ok:  # pragma: no cover - solver internal invariant
        raise UnsolvableError(f"extracted policy failed verification: "
                              f"{report.reason}")
    return policy


def verify_policy(policy: Policy) -> PolicyReport:
    """Check closure and strong cyclicity by an independent traversal.

    Closed: every state reachable from s0 under the policy is a goal
    state or has an applicable mapped action. Strong cyclic: from every
    reachable state, some goal state is reachable along policy edges.
    """
    g = policy.grounded
    reached: list[int] = [g.s0]
    seen = {g.s0}
    preds: dict[int, list[int]] = {}
    goals: list[int] = []
    closed = True
    counterexample: int | None = None
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


# ---------------------------------------------------------------------------
# Policy text format and the external planner adapter

def policy_to_text(policy: Policy) -> str:
    """One line per entry: sorted state fluents, a tab, the action."""
    g = policy.grounded
    lines = []
    for state, ai in policy.mapping.items():
        lines.append(f"{g.state_str(state)}\t{g.actions[ai].name}")
    return "\n".join(lines) + ("\n" if lines else "")


_ATOM_RE = re.compile(r"\(([^()]*)\)")


def _parse_atom_list(text: str) -> list[Atom]:
    out = []
    for inner in _ATOM_RE.findall(text):
        parts = inner.split()
        if not parts:
            raise PolicyParseError(f"empty atom in {text!r}")
        out.append(Atom(parts[0], tuple(parts[1:])))
    return out


def policy_from_text(text: str, grounded: GroundedFond) -> Policy:
    """Parse the policy text format against a grounded model."""
    mapping: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # Split the unstripped line: the empty state's line starts with
        # the tab.
        if "\t" not in raw:
            raise PolicyParseError(
                f"line {lineno}: expected 'state<TAB>action', got {raw!r}")
        state_part, action_part = raw.split("\t", 1)
        atoms = _parse_atom_list(state_part)
        try:
            state = grounded.state_of(frozenset(atoms))
        except Exception as exc:
            raise PolicyParseError(f"line {lineno}: {exc}") from exc
        action = action_part.strip()
        ai = grounded.action_index.get(action)
        if ai is None:
            raise PolicyParseError(
                f"line {lineno}: unknown action {action!r}")
        mapping[state] = ai
    return Policy(grounded, mapping)


def solve_with_external(command: str, grounded: GroundedFond,
                        domain_text: str, problem_text: str, *,
                        deadline: float | None = None) -> Policy:
    """Run an external planner: `command domain.pddl problem.pddl`.

    The planner must print the policy in the text format above on stdout
    and exit 0; exit code 2 means the task is unsolvable; anything else
    is an error. The returned policy is verified before use.
    """
    timeout = None
    if deadline is not None:
        timeout = max(0.1, deadline - time.monotonic())
    with tempfile.TemporaryDirectory(prefix="tgr-planner-") as tmp:
        dom = f"{tmp}/domain.pddl"
        prob = f"{tmp}/problem.pddl"
        with open(dom, "w") as fh:
            fh.write(domain_text)
        with open(prob, "w") as fh:
            fh.write(problem_text)
        argv = command.split() + [dom, prob]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=timeout)
        except FileNotFoundError as exc:
            raise ExternalPlannerError(f"cannot run {argv[0]!r}: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise DeadlineExceeded(
                f"external planner exceeded its deadline") from exc
    if proc.returncode == 2:
        raise UnsolvableError(
            f"external planner reports the task unsolvable")
    if proc.returncode != 0:
        raise ExternalPlannerError(
            f"external planner exited with {proc.returncode}: "
            f"{proc.stderr.strip()[:500]}")
    try:
        policy = policy_from_text(proc.stdout, grounded)
    except PolicyParseError as exc:
        raise ExternalPlannerError(f"bad policy output: {exc}") from exc
    report = verify_policy(policy)
    if not report.ok:
        raise ExternalPlannerError(
            f"external policy failed verification: {report.reason}")
    return policy
